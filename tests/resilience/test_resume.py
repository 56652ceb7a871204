"""Kill-and-resume integration tests: the tentpole bit-identity contract.

A search SIGKILLed between (or during) checkpoint writes, then resumed
with ``resume_from`` / ``repro search --resume``, must produce exactly
the trials, scores, and incumbent of an uninterrupted run — serial and
parallel alike.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.bo import ScalarizationConfig
from repro.data import make_synthetic_dataset
from repro.nas import BOMPNAS, SearchConfig, get_mode
from repro.resilience.checkpoint import (CHECKPOINT_FILENAME,
                                         CheckpointError, has_checkpoint,
                                         load_checkpoint)


@pytest.fixture(scope="module")
def setup(unit_scale):
    dataset = make_synthetic_dataset(
        "tiny-resume", num_classes=10, n_train=unit_scale.n_train,
        n_test=unit_scale.n_test, image_size=unit_scale.image_size, seed=3)
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=unit_scale, seed=0)
    baseline = BOMPNAS(config, dataset).run(final_training=False,
                                            workers=1, batch_size=2)
    return config, dataset, baseline


def assert_bit_identical(resumed, baseline):
    assert [t.index for t in resumed.trials] == \
        [t.index for t in baseline.trials]
    assert [t.genome for t in resumed.trials] == \
        [t.genome for t in baseline.trials]
    assert [t.score for t in resumed.trials] == \
        [t.score for t in baseline.trials]
    assert [t.accuracy for t in resumed.trials] == \
        [t.accuracy for t in baseline.trials]
    assert [t.size_bits for t in resumed.trials] == \
        [t.size_bits for t in baseline.trials]
    assert resumed.best_trial().index == baseline.best_trial().index
    assert resumed.best_trial().score == baseline.best_trial().score
    assert resumed.pareto_trial_indices() == baseline.pareto_trial_indices()


def _run_until_killed(config, dataset, ckpt_dir, env):
    """Child-process body: run a checkpointed search into a scripted kill."""
    os.environ.update(env)
    BOMPNAS(config, dataset).run(final_training=False, workers=1,
                                 batch_size=2, checkpoint_dir=ckpt_dir)


class _Interrupt(Exception):
    pass


def run_interrupted(config, dataset, ckpt_dir, stop_after=2, workers=1):
    """In-process interruption: abort the run after ``stop_after`` trials.

    The exception fires during the batch *after* the checkpoint landed, so
    the checkpoint covers exactly the first ``stop_after`` trials.
    """
    calls = {"n": 0}

    def progress(trial):
        calls["n"] += 1
        if calls["n"] > stop_after:
            raise _Interrupt

    nas = BOMPNAS(config, dataset, progress=progress)
    with pytest.raises(_Interrupt):
        nas.run(final_training=False, workers=workers, batch_size=2,
                checkpoint_dir=ckpt_dir)


def fork_and_wait(target, *args):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=target, args=args)
    process.start()
    process.join(timeout=300)
    assert not process.is_alive(), "child search did not terminate"
    return process.exitcode


@pytest.mark.faults
class TestKillResume:
    def test_sigkill_after_first_checkpoint_resumes_identical(
            self, setup, tmp_path):
        config, dataset, baseline = setup
        ckpt_dir = tmp_path / "run"
        exitcode = fork_and_wait(
            _run_until_killed, config, dataset, ckpt_dir,
            {"BOMP_FAULTS": "ckpt-kill@1",
             "BOMP_FAULT_DIR": str(tmp_path / "ledger")})
        assert exitcode == -signal.SIGKILL
        interrupted = load_checkpoint(ckpt_dir)
        assert interrupted.batch_index == 1
        assert len(interrupted.trials) == 2
        resumed = BOMPNAS(config, dataset).run(
            final_training=False, workers=1, resume_from=ckpt_dir)
        assert_bit_identical(resumed, baseline)
        # the final checkpoint now covers the whole run
        final = load_checkpoint(ckpt_dir)
        assert len(final.trials) == len(baseline.trials)

    def test_sigkill_mid_checkpoint_write_resumes_identical(
            self, setup, tmp_path):
        """Die *during* the batch-2 checkpoint write: the batch-1 file must
        survive the tear and carry the resume."""
        config, dataset, baseline = setup
        ckpt_dir = tmp_path / "run"
        exitcode = fork_and_wait(
            _run_until_killed, config, dataset, ckpt_dir,
            {"BOMP_FAULTS": "ckpt-tear@2",
             "BOMP_FAULT_DIR": str(tmp_path / "ledger")})
        assert exitcode == -signal.SIGKILL
        survivor = load_checkpoint(ckpt_dir)
        assert survivor.batch_index == 1
        assert len(survivor.trials) == 2
        resumed = BOMPNAS(config, dataset).run(
            final_training=False, workers=1, resume_from=ckpt_dir)
        assert_bit_identical(resumed, baseline)

    def test_resume_with_two_workers_identical(self, setup, tmp_path):
        config, dataset, baseline = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir, stop_after=2, workers=2)
        assert has_checkpoint(ckpt_dir)
        resumed = BOMPNAS(config, dataset).run(
            final_training=False, workers=2, resume_from=ckpt_dir)
        assert_bit_identical(resumed, baseline)


class TestResumeSemantics:
    def test_resume_of_completed_run_is_identity(self, setup, tmp_path):
        config, dataset, baseline = setup
        ckpt_dir = tmp_path / "run"
        BOMPNAS(config, dataset).run(final_training=False, workers=1,
                                     batch_size=2, checkpoint_dir=ckpt_dir)
        resumed = BOMPNAS(config, dataset).run(
            final_training=False, workers=1, resume_from=ckpt_dir)
        assert_bit_identical(resumed, baseline)

    def test_config_mismatch_rejected(self, setup, tmp_path):
        config, dataset, _ = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)
        import dataclasses
        other = dataclasses.replace(config, seed=config.seed + 1)
        with pytest.raises(CheckpointError, match="seed"):
            BOMPNAS(other, dataset).run(final_training=False,
                                        resume_from=ckpt_dir)

    def test_ref_macs_mismatch_rejected(self, setup, tmp_path):
        config, dataset, _ = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)
        import dataclasses
        other = dataclasses.replace(
            config, scalarization=ScalarizationConfig(ref_macs=4.0))
        with pytest.raises(CheckpointError, match="ref_macs"):
            BOMPNAS(other, dataset).run(final_training=False,
                                        resume_from=ckpt_dir)

    def test_checkpoint_without_ref_macs_resumes(self, setup, tmp_path):
        """A checkpoint written before config dicts carried ``ref_macs``
        resumes: the missing key reads as its default, not a mismatch."""
        config, dataset, baseline = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)
        path = ckpt_dir / CHECKPOINT_FILENAME
        payload = json.loads(path.read_text())
        del payload["config"]["ref_macs"]
        path.write_text(json.dumps(payload))
        resumed = BOMPNAS(config, dataset).run(
            final_training=False, workers=1, resume_from=ckpt_dir)
        assert_bit_identical(resumed, baseline)

    def test_unknown_config_key_rejected(self, setup, tmp_path):
        """A renamed key is refused, not read as the default."""
        config, dataset, _ = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)
        path = ckpt_dir / CHECKPOINT_FILENAME
        payload = json.loads(path.read_text())
        payload["config"]["kernem"] = payload["config"].pop("kernel")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="kernem"):
            BOMPNAS(config, dataset).run(final_training=False,
                                         resume_from=ckpt_dir)

    def test_batch_size_mismatch_rejected(self, setup, tmp_path):
        config, dataset, _ = setup
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)  # batch_size=2
        with pytest.raises(CheckpointError, match="batch_size"):
            BOMPNAS(config, dataset).run(final_training=False,
                                         batch_size=3, resume_from=ckpt_dir)

    def test_missing_checkpoint_rejected(self, setup, tmp_path):
        config, dataset, _ = setup
        with pytest.raises(CheckpointError, match="no checkpoint"):
            BOMPNAS(config, dataset).run(final_training=False,
                                         resume_from=tmp_path / "nowhere")


class TestCliResume:
    def test_search_checkpoint_then_resume_identical(self, tmp_path):
        from repro.cli import main
        ckpt_dir = tmp_path / "ckpt"
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["search", "--scale", "unit", "--no-final-training",
                     "--quiet", "--workers", "1", "--trial-batch", "2",
                     "--checkpoint-dir", str(ckpt_dir),
                     "--out", str(first)]) == 0
        assert has_checkpoint(ckpt_dir)
        # --resume restores config + dataset from the checkpoint alone
        assert main(["search", "--resume", str(ckpt_dir),
                     "--no-final-training", "--quiet", "--workers", "1",
                     "--out", str(second)]) == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["trials"] == b["trials"]
        assert a["config"] == b["config"]

    def test_resume_keeps_ref_macs(self, setup, tmp_path):
        """``--resume`` of a ``ref_macs`` search scores the remaining
        trials with the MACs term, like the uninterrupted search."""
        import dataclasses
        from repro.cli import main
        config, dataset, _ = setup
        config = dataclasses.replace(
            config, scalarization=ScalarizationConfig(ref_macs=4.0))
        baseline = BOMPNAS(config, dataset).run(final_training=False,
                                                workers=1, batch_size=2)
        ckpt_dir = tmp_path / "run"
        run_interrupted(config, dataset, ckpt_dir)
        out = tmp_path / "resumed.json"
        assert main(["search", "--resume", str(ckpt_dir),
                     "--no-final-training", "--quiet", "--workers", "1",
                     "--out", str(out)]) == 0
        resumed = json.loads(out.read_text())
        assert resumed["config"]["ref_macs"] == 4.0
        assert [t["score"] for t in resumed["trials"]] == \
            [t.score for t in baseline.trials]

    def test_resume_without_checkpoint_fails(self, tmp_path):
        from repro.cli import main
        with pytest.raises(CheckpointError, match="no checkpoint"):
            main(["search", "--resume", str(tmp_path / "empty"),
                  "--quiet"])
