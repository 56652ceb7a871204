"""Tests for the trial-evaluation engine and its worker protocol."""

import pickle

import numpy as np
import pytest

from repro.parallel import (RetryPolicy, TrialEngine, TrialEvaluationError,
                            TrialOutcome, TrialSpec, trial_seed)


@pytest.fixture
def spec(c10_space, rng):
    genome = c10_space.random_genome(rng)
    return TrialSpec(index=0, genome=genome, seed=trial_seed(0, 0))


class TestWorkerProtocol:
    def test_spec_pickle_roundtrip(self, spec):
        recovered = pickle.loads(pickle.dumps(spec))
        assert recovered == spec

    def test_outcome_pickle_roundtrip(self, spec):
        outcome = TrialOutcome(index=3, error="boom")
        recovered = pickle.loads(pickle.dumps(outcome))
        assert recovered.index == 3
        assert recovered.error == "boom"

    def test_spec_is_small(self, spec):
        # the whole point of the protocol: per-task payloads must never
        # carry dataset arrays or model weights
        assert len(pickle.dumps(spec)) < 4096


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("field, value", [
        ("trial_timeout_s", float("nan")), ("trial_timeout_s", float("inf")),
        ("trial_timeout_s", 0.0), ("backoff_s", float("nan")),
        ("backoff_s", float("inf")), ("backoff_s", -1.0)])
    def test_non_finite_or_out_of_range_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})


class TestEngineSerial:
    def test_serial_matches_direct_evaluation(self, unit_config,
                                              tiny_dataset, spec):
        from repro.nas import BOMPNAS
        nas = BOMPNAS(unit_config, tiny_dataset)
        direct = nas.evaluate_candidate(spec.genome, spec.index,
                                        seed=spec.seed)
        with TrialEngine(unit_config, tiny_dataset, workers=1) as engine:
            assert not engine.parallel
            [batch] = engine.evaluate([spec])
        assert len(batch) == len(direct)
        assert batch[0].genome == direct[0].genome
        assert batch[0].score == direct[0].score
        assert batch[0].accuracy == direct[0].accuracy

    def test_empty_specs(self, unit_config, tiny_dataset):
        with TrialEngine(unit_config, tiny_dataset, workers=1) as engine:
            assert engine.evaluate([]) == []

    def test_evaluator_error_raises(self, unit_config, tiny_dataset, spec):
        class Broken:
            def evaluate_candidate(self, genome, index, seed=None):
                raise RuntimeError("injected failure")

        engine = TrialEngine(unit_config, tiny_dataset, workers=1,
                             evaluator=Broken())
        with engine, pytest.raises(TrialEvaluationError,
                                   match="injected failure"):
            engine.evaluate([spec])


class TestEngineParallel:
    def test_pool_matches_serial(self, unit_config, tiny_dataset, c10_space):
        rng_local = np.random.default_rng(11)
        specs = [TrialSpec(index=i, genome=c10_space.random_genome(rng_local),
                           seed=trial_seed(unit_config.seed, i))
                 for i in range(3)]
        with TrialEngine(unit_config, tiny_dataset, workers=1) as engine:
            serial = engine.evaluate(specs)
        with TrialEngine(unit_config, tiny_dataset, workers=2) as engine:
            parallel = engine.evaluate(specs)
        for a, b in zip(serial, parallel):
            assert [t.genome for t in a] == [t.genome for t in b]
            assert [t.score for t in a] == [t.score for t in b]
            assert [t.size_bits for t in a] == [t.size_bits for t in b]

    def test_bad_start_method_falls_back_serial(self, unit_config,
                                                tiny_dataset, spec,
                                                monkeypatch):
        monkeypatch.setenv("BOMP_MP_START", "no-such-method")
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = TrialEngine(unit_config, tiny_dataset, workers=2)
            engine.__enter__()
        try:
            assert not engine.parallel
            [batch] = engine.evaluate([spec])
            assert batch[0].size_bits > 0
        finally:
            engine.close()
