"""A malformed ``checkpoint.json`` fails resume with ``CheckpointError``.

Truncations, single-bit flips and hand-made mutations of a real
checkpoint are resumed through ``repro search --resume``.  Each must
either resume cleanly or raise :class:`CheckpointError`, the one error the
experiment runner's fresh-run fallback catches; anything else (a
``UnicodeDecodeError`` from a flipped high bit, a ``KeyError`` from a
flipped key name) would crash a table or figure run instead of restarting
it.  Flips that keep the JSON valid, such as a changed digit, resume with
the changed value: catching those needs an integrity digest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.resilience.checkpoint import (CHECKPOINT_FILENAME, CheckpointError,
                                         validate_checkpoint_file)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """The checkpoint of a completed unit-scale search."""
    run_dir = tmp_path_factory.mktemp("written")
    assert main(["search", "--scale", "unit", "--no-final-training",
                 "--quiet", "--workers", "1", "--trial-batch", "2",
                 "--checkpoint-dir", str(run_dir),
                 "--out", str(run_dir / "result.json")]) == 0
    return (run_dir / CHECKPOINT_FILENAME).read_bytes()


def _resume(run_dir, payload):
    """Resume from ``payload``; True when it resumed, False on
    ``CheckpointError``, any other exception propagates."""
    run_dir.mkdir()
    (run_dir / CHECKPOINT_FILENAME).write_bytes(payload)
    try:
        code = main(["search", "--resume", str(run_dir),
                     "--no-final-training", "--quiet", "--workers", "1",
                     "--out", str(run_dir / "result.json")])
    except CheckpointError as error:
        assert str(run_dir / CHECKPOINT_FILENAME) in str(error)
        return False
    assert code == 0
    return True


def _mutated(payload, mutate):
    data = json.loads(payload)
    mutate(data)
    return json.dumps(data, indent=2).encode()


class TestMalformedCheckpoints:
    def test_intact_checkpoint_resumes(self, checkpoint_bytes, tmp_path):
        assert _resume(tmp_path / "intact", checkpoint_bytes)

    def test_truncations(self, checkpoint_bytes, tmp_path):
        rng = np.random.default_rng(0)
        for case, size in enumerate(
                rng.integers(0, len(checkpoint_bytes), size=20)):
            assert not _resume(tmp_path / f"cut{case}",
                               checkpoint_bytes[:size])

    def test_single_bit_flips(self, checkpoint_bytes, tmp_path):
        rng = np.random.default_rng(1)
        rejected = 0
        for case in range(80):
            flipped = bytearray(checkpoint_bytes)
            flipped[rng.integers(len(flipped))] ^= 1 << int(rng.integers(8))
            rejected += not _resume(tmp_path / f"flip{case}", bytes(flipped))
        assert rejected > 0

    @pytest.mark.parametrize("mutate", [
        lambda data: data["trials"][0].update(genome={}),
        lambda data: data["trials"][1].update(score="0.5"),
        lambda data: data["optimizer"].update(
            rng_state={"bit_generator": "PCG64"}),
        lambda data: data["optimizer"]["rng_state"].update(
            bit_generator="MT19937"),
        lambda data: data["config"].update(kernel="matern53"),
        lambda data: data["dataset_spec"].update(image_size="8"),
    ], ids=["empty-genome", "string-score", "rng-state-without-state",
            "rng-state-other-generator", "unknown-kernel",
            "string-image-size"])
    def test_mutations_rejected(self, checkpoint_bytes, tmp_path, mutate):
        assert not _resume(tmp_path / "run",
                           _mutated(checkpoint_bytes, mutate))


def test_schema_check_reports_undecodable_bytes(checkpoint_bytes,
                                                tmp_path):
    """The schema checker reports a flipped high bit instead of raising."""
    flipped = bytearray(checkpoint_bytes)
    flipped[len(flipped) // 2] |= 0x80
    (tmp_path / CHECKPOINT_FILENAME).write_bytes(bytes(flipped))
    problems = validate_checkpoint_file(tmp_path)
    assert len(problems) == 1 and "unreadable" in problems[0]


def test_cli_exit_names_the_file(checkpoint_bytes, tmp_path):
    """``python -m repro search --resume`` on a torn checkpoint: a non-zero
    exit and one line on stderr naming the file, not a traceback."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = run_dir / CHECKPOINT_FILENAME
    path.write_bytes(checkpoint_bytes[:len(checkpoint_bytes) // 2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "search", "--resume", str(run_dir),
         "--no-final-training", "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode != 0
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert str(path) in lines[0]
