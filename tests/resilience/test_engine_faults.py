"""TrialEngine fault handling: retry, timeout-kill, respawn, degradation.

Every test injects a scripted fault into the worker path and asserts the
engine still returns the exact outcomes of an undisturbed serial run —
the per-trial deterministic seeding is what makes recovery invisible.
"""

import multiprocessing

import numpy as np
import pytest

from repro.data import make_synthetic_dataset
from repro.nas import BOMPNAS, SearchConfig, get_mode
from repro.obs.console import ConsoleReporter
from repro.obs.trace import TraceRecorder, use_recorder
from repro.parallel import (RetryPolicy, TrialEngine, TrialEvaluationError,
                            TrialSpec, trial_seed)

pytestmark = [
    pytest.mark.faults,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable"),
]

QUIET = ConsoleReporter(quiet=True)


def fast_policy(**overrides):
    defaults = dict(trial_timeout_s=30.0, max_retries=2, backoff_s=0.01,
                    max_pool_respawns=2)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


@pytest.fixture(scope="module")
def engine_setup(unit_scale):
    dataset = make_synthetic_dataset(
        "tiny-engine-faults", num_classes=10, n_train=unit_scale.n_train,
        n_test=unit_scale.n_test, image_size=unit_scale.image_size, seed=3)
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=unit_scale, seed=0)
    nas = BOMPNAS(config, dataset)
    sampler = np.random.default_rng(5)
    specs = [TrialSpec(index=i, genome=nas.space.random_genome(sampler),
                       seed=trial_seed(config.seed, i))
             for i in range(3)]
    with TrialEngine(config, dataset, workers=1, evaluator=nas,
                     reporter=QUIET) as engine:
        expected = engine.evaluate(specs)
    scores = [[r.score for r in batch] for batch in expected]
    return config, dataset, specs, scores


def run_pooled(config, dataset, specs, policy, workers=2):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        with TrialEngine(config, dataset, workers=workers,
                         retry_policy=policy, reporter=QUIET) as engine:
            batches = engine.evaluate(specs)
            state = (engine.parallel, engine.degraded)
    scores = [[r.score for r in batch] for batch in batches]
    counters = [e["name"] for e in recorder.events
                if e.get("type") == "counter"]
    return scores, state, counters


class TestWorkerFaultRecovery:
    def test_injected_error_retried_to_identical_result(
            self, engine_setup, fault_env):
        config, dataset, specs, expected = engine_setup
        fault_env("error@1")
        scores, (parallel, degraded), counters = run_pooled(
            config, dataset, specs, fast_policy())
        assert scores == expected
        assert parallel and not degraded
        assert "pool.retries" in counters

    def test_persistent_error_exhausts_retries(self, engine_setup,
                                               fault_env):
        config, dataset, specs, _ = engine_setup
        fault_env("error@1x9")
        with pytest.raises(TrialEvaluationError,
                           match="failed after 3 attempts"):
            run_pooled(config, dataset, specs,
                       fast_policy(max_retries=2))

    def test_corrupt_outcome_retried_to_identical_result(
            self, engine_setup, fault_env):
        config, dataset, specs, expected = engine_setup
        fault_env("corrupt@1")
        scores, (parallel, degraded), counters = run_pooled(
            config, dataset, specs, fast_policy())
        assert scores == expected
        assert parallel and not degraded
        assert "pool.retries" in counters

    def test_worker_crash_respawns_pool(self, engine_setup, fault_env):
        config, dataset, specs, expected = engine_setup
        fault_env("crash@2")
        scores, (parallel, degraded), counters = run_pooled(
            config, dataset, specs, fast_policy())
        assert scores == expected
        assert parallel and not degraded
        assert "pool.crashes" in counters
        assert "pool.respawns" in counters

    def test_hung_worker_timed_out_and_recovered(self, engine_setup,
                                                 fault_env):
        config, dataset, specs, expected = engine_setup
        fault_env("hang@0", hang_s=120)
        scores, (parallel, degraded), counters = run_pooled(
            config, dataset, specs, fast_policy(trial_timeout_s=4.0))
        assert scores == expected
        assert not degraded
        assert "pool.timeout_kills" in counters
        assert "pool.respawns" in counters

    def test_repeated_crashes_degrade_to_serial(self, engine_setup,
                                                fault_env):
        config, dataset, specs, expected = engine_setup
        fault_env("crash@0x6")
        with pytest.warns(RuntimeWarning, match="degrading"):
            scores, (parallel, degraded), counters = run_pooled(
                config, dataset, specs,
                fast_policy(max_pool_respawns=1))
        assert scores == expected  # serial fill-in completed the batch
        assert degraded and not parallel
        assert "pool.degraded" in counters


class TestFaultsReported:
    def test_report_names_the_retry(self, engine_setup, fault_env,
                                    tmp_path):
        """A traced ``workers=2`` search that retried one trial says so in
        its ``repro report`` pool section."""
        from repro.obs.report import load_report, render_text
        from repro.obs.trace import RunTracer, read_events
        config, dataset, _, _ = engine_setup
        fault_env("error@1")
        with RunTracer(tmp_path / "run") as tracer:
            BOMPNAS(config, dataset).run(
                final_training=False, workers=2, tracer=tracer,
                retry_policy=fast_policy(), reporter=QUIET)
        retries = [e for e in read_events(tmp_path / "run")
                   if e.get("name") == "pool.retries"]
        assert len(retries) == 1
        text = render_text(load_report(tmp_path / "run"))
        assert "  faults: retries 1" in text.splitlines()


class TestPoolStartFailureSurfaced:
    def test_reason_reported_and_counted(self, engine_setup, monkeypatch):
        """The serial fallback is loud: warning + obs counter with cause."""
        config, dataset, specs, expected = engine_setup
        monkeypatch.setenv("BOMP_MP_START", "bogus-method")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="falling back"):
                with TrialEngine(config, dataset, workers=2,
                                 retry_policy=fast_policy(),
                                 reporter=QUIET) as engine:
                    assert not engine.parallel
                    scores = [[r.score for r in batch]
                              for batch in engine.evaluate(specs)]
        assert scores == expected
        failures = [e for e in recorder.events
                    if e.get("type") == "counter"
                    and e["name"] == "pool.start_failures"]
        assert failures and "bogus-method" in failures[0]["tags"]["reason"]
