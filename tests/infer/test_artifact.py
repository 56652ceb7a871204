"""Deployable artifact: serialization round-trip, bit-identical rebuild,
error paths, and the export/infer CLI round-trip from a real run."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.infer import (ArtifactError, build_artifact, load_artifact,
                         save_artifact)
from repro.infer.artifact import (ARTIFACT_MAGIC, artifact_from_bytes,
                                  artifact_to_bytes, collect_bn_stats,
                                  restore_bn_stats, _pick_trial)
from repro.nas.trial import genome_to_dict
from repro.space import MixedPrecisionGenome, build_model

from .conftest import make_quantized_model


@pytest.fixture(scope="module")
def genome(c10_space):
    return MixedPrecisionGenome(c10_space.seed_arch(),
                                c10_space.seed_policy(8))


@pytest.fixture(scope="module")
def cheap_model(c10_space, infer_dataset):
    """Quantized seed model without the (slow) confidence training —
    serialization fidelity does not care about accuracy."""
    return make_quantized_model(c10_space, c10_space.seed_policy(8),
                                infer_dataset, float_epochs=0,
                                qaft_epochs=0)


@pytest.fixture(scope="module")
def artifact(cheap_model, genome, infer_dataset):
    return build_artifact(
        cheap_model, genome, num_classes=10,
        image_size=infer_dataset.x_train.shape[1],
        dataset_spec=infer_dataset.spec,
        meta={"trial_index": 3, "accuracy": 0.5})


class TestRoundTrip:
    def test_bytes_round_trip(self, artifact):
        back = artifact_from_bytes(artifact_to_bytes(artifact))
        assert genome_to_dict(back.genome) == genome_to_dict(
            artifact.genome)
        assert back.num_classes == artifact.num_classes
        assert back.image_size == artifact.image_size
        assert back.in_channels == artifact.in_channels
        assert back.container == artifact.container
        assert back.dataset_spec == artifact.dataset_spec
        assert back.meta == artifact.meta
        assert set(back.bn_stats) == set(artifact.bn_stats)
        for key, value in artifact.bn_stats.items():
            assert np.array_equal(back.bn_stats[key], value)

    def test_save_and_load_file(self, artifact, tmp_path):
        path = save_artifact(artifact, tmp_path / "model.bomp")
        assert path.exists()
        back = load_artifact(path)
        assert back.container == artifact.container
        assert back.meta == artifact.meta

    def test_rebuild_bit_identical_logits(self, artifact, cheap_model,
                                          infer_dataset):
        """The rebuilt fake-quant model must reproduce the original's
        logits exactly — not approximately."""
        rebuilt = artifact_from_bytes(
            artifact_to_bytes(artifact)).rebuild()
        x = infer_dataset.x_test[:16]
        assert np.array_equal(rebuilt.forward(x), cheap_model.forward(x))

    def test_compile_from_artifact(self, artifact, infer_dataset):
        program = artifact.compile(name="from-artifact")
        logits = program.run(infer_dataset.x_test[:8], batch_size=8)
        assert logits.shape == (8, 10)

    def test_test_set_regenerates_evaluation_split(self, artifact,
                                                   infer_dataset):
        x, y = artifact.test_set()
        assert np.array_equal(x, infer_dataset.x_test)
        assert np.array_equal(y, infer_dataset.y_test)


class TestErrorPaths:
    def test_bad_magic_rejected(self, artifact):
        data = b"NOTBOMP!" + artifact_to_bytes(artifact)[8:]
        with pytest.raises(ArtifactError, match="not a BOMP"):
            artifact_from_bytes(data)

    def test_unsupported_version_rejected(self):
        data = ARTIFACT_MAGIC + struct.pack("<I", 99)
        with pytest.raises(ArtifactError, match="version 99"):
            artifact_from_bytes(data)

    def test_truncated_artifact_rejected(self, artifact):
        data = artifact_to_bytes(artifact)
        with pytest.raises(ArtifactError, match="truncated"):
            artifact_from_bytes(data[:len(data) - 16])

    def test_missing_dataset_spec(self, cheap_model, genome):
        bare = build_artifact(cheap_model, genome, num_classes=10,
                              image_size=8)
        with pytest.raises(ArtifactError, match="no dataset spec"):
            bare.test_set()

    def test_bn_stat_count_mismatch(self, cheap_model, genome, rng):
        stats = collect_bn_stats(cheap_model)
        stats.pop(sorted(stats)[0])
        target = build_model(genome.arch, 10, rng=rng)
        with pytest.raises(ArtifactError, match="BatchNorm"):
            restore_bn_stats(target, stats)


def _blob_spans(data):
    """``(length field, blob start, blob end)`` of header, container, npz."""
    spans = []
    offset = len(ARTIFACT_MAGIC) + 4
    for _ in range(3):
        (length,) = struct.unpack("<I", data[offset:offset + 4])
        spans.append((offset, offset + 4, offset + 4 + length))
        offset += 4 + length
    return spans


#: header blobs that parse to nothing usable, from a valid genome dict
_BAD_HEADERS = {
    "not-utf8": lambda genome: b"\xff",
    "bad-json": lambda genome: b"{",
    "deep-json": lambda genome: b"[" * 100_000,
    "not-object": lambda genome: b"[]",
    "no-genome": lambda genome: b"{}",
    "bad-blocks": lambda genome: json.dumps(
        {"genome": {**genome, "blocks": 1}}).encode(),
    "policy-list": lambda genome: json.dumps(
        {"genome": {**genome, "policy": []}}).encode(),
}


class TestMalformedBytes:
    """Truncated or corrupted ``.bomp`` bytes raise ArtifactError — the
    error ``repro infer`` and the daemon's load route answer cleanly —
    never a struct, zip or decode error."""

    def test_every_cut_in_the_first_64_bytes(self, artifact):
        data = artifact_to_bytes(artifact)
        for cut in range(64):
            with pytest.raises(ArtifactError):
                artifact_from_bytes(data[:cut])

    def test_cuts_at_each_length_field(self, artifact):
        data = artifact_to_bytes(artifact)
        for field, start, _ in _blob_spans(data):
            for cut in range(field, start + 1):
                with pytest.raises(ArtifactError, match="truncated"):
                    artifact_from_bytes(data[:cut])

    def test_seeded_header_byte_flips(self, artifact):
        data = artifact_to_bytes(artifact)
        _, start, end = _blob_spans(data)[0]
        rng = np.random.default_rng(13)
        for pos in rng.choice(np.arange(start, end), 64, replace=False):
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            with pytest.raises(ArtifactError, match="header"):
                artifact_from_bytes(bytes(flipped))

    def test_seeded_npz_byte_flips(self, artifact):
        """A flip in the BN-stats npz raises, unless it hit zip metadata
        that carries no data (a timestamp, say): then the stats load
        unchanged.  Catching that needs an integrity digest."""
        data = artifact_to_bytes(artifact)
        _, start, end = _blob_spans(data)[2]
        rng = np.random.default_rng(14)
        raised = 0
        for pos in rng.choice(np.arange(start, end), 64, replace=False):
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            try:
                back = artifact_from_bytes(bytes(flipped))
            except ArtifactError as exc:
                assert "BN-stats" in str(exc)
                raised += 1
                continue
            assert set(back.bn_stats) == set(artifact.bn_stats)
            for key, value in artifact.bn_stats.items():
                assert np.array_equal(back.bn_stats[key], value), pos
        assert raised

    @pytest.mark.parametrize("case", sorted(_BAD_HEADERS))
    def test_malformed_header(self, artifact, case):
        header = _BAD_HEADERS[case](genome_to_dict(artifact.genome))
        data = artifact_to_bytes(artifact)
        field, _, end = _blob_spans(data)[0]
        data = (data[:field] + struct.pack("<I", len(header)) + header
                + data[end:])
        with pytest.raises(ArtifactError, match="header"):
            artifact_from_bytes(data)

    def test_malformed_container_rejected_on_rebuild(self, artifact):
        truncated = dataclasses.replace(artifact,
                                        container=artifact.container[:40])
        with pytest.raises(ArtifactError, match="container"):
            truncated.rebuild()


class TestPickTrial:
    class _Trial:
        def __init__(self, index, score):
            self.index, self.score = index, score

    def test_default_is_highest_score(self):
        trials = [self._Trial(0, 0.1), self._Trial(1, 0.9),
                  self._Trial(2, 0.4)]
        assert _pick_trial(trials, None).index == 1

    def test_explicit_index(self):
        trials = [self._Trial(0, 0.1), self._Trial(4, 0.9)]
        assert _pick_trial(trials, 4).score == 0.9

    def test_unknown_index_lists_available(self):
        with pytest.raises(ArtifactError, match=r"\[0, 4\]"):
            _pick_trial([self._Trial(0, 0.1), self._Trial(4, 0.9)], 7)


class TestCliRoundTrip:
    def test_export_then_infer(self, tmp_path, capsys):
        """search --out, then export + infer, with no access to anything
        but the saved run and the artifact file."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        out_path = str(run_dir / "result.json")
        assert main(["search", "--scale", "unit", "--seed", "2",
                     "--no-final-training", "--quiet",
                     "--out", out_path]) == 0
        assert main(["export", out_path]) == 0
        out = capsys.readouterr().out
        assert "exported trial #" in out
        artifacts = list(run_dir.glob("*.bomp"))
        assert len(artifacts) == 1
        assert main(["infer", str(artifacts[0]), "--limit", "16"]) == 0
        out = capsys.readouterr().out
        assert "deployed top-1 accuracy" in out
        assert "peak INT8 activation memory" in out

    def test_parity_stage_budgets_on_exported_run(self, tmp_path, capsys):
        """Every requant segment of an exported model stays within its
        LSB budget.  Top-1 agreement is not asserted here: the unit-scale
        model is barely trained, so argmax flips on near-zero margins are
        legitimate (see conftest docstring); a *stage*-level FAIL would be
        a genuine engine bug."""
        out_path = str(tmp_path / "result.json")
        assert main(["search", "--scale", "unit", "--seed", "2",
                     "--no-final-training", "--quiet",
                     "--out", out_path]) == 0
        artifact_path = str(tmp_path / "model.bomp")
        assert main(["export", out_path, "--out", artifact_path]) == 0
        main(["infer", artifact_path, "--limit", "16", "--parity"])
        out = capsys.readouterr().out
        stage_lines = [line for line in out.splitlines()
                       if "(budget" in line]
        assert stage_lines
        assert all(line.strip().startswith("ok") for line in stage_lines)

    def test_export_bad_source_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="export failed"):
            main(["export", str(tmp_path)])
