"""Tests for result containers, trial records and JSON persistence."""

import json
import re

import numpy as np
import pytest

from repro.nas import (BOMPNAS, SearchResult, TrialResult, genome_from_dict,
                       genome_to_dict)
from repro.nas.results import ResultError, config_from_dict, config_to_dict


@pytest.fixture(scope="module")
def finished_run(unit_scale):
    from repro.data import make_synthetic_dataset
    from repro.nas import SearchConfig
    dataset = make_synthetic_dataset(
        "tiny", 10, unit_scale.n_train, unit_scale.n_test,
        image_size=unit_scale.image_size, seed=9)
    config = SearchConfig(scale=unit_scale, seed=5)
    return BOMPNAS(config, dataset).run(final_training=True)


class TestConfigSerialization:
    @pytest.mark.parametrize("ref_macs", [None, 4.0],
                             ids=["without-ref-macs", "with-ref-macs"])
    def test_round_trip(self, unit_scale, ref_macs):
        from repro.bo import ScalarizationConfig
        from repro.nas import SearchConfig, get_mode
        config = SearchConfig(
            dataset="cifar100", mode=get_mode("mp_ptq"), scale=unit_scale,
            scalarization=ScalarizationConfig(
                ref_accuracy=0.5, ref_model_size=300.0, ref_macs=ref_macs),
            seed=7, policies_per_trial=2, kernel="rbf", acquisition="ei",
            observer="percentile")
        raw = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(raw) == config

    def test_payload_without_ref_macs_loads(self, unit_scale):
        """Results and checkpoints written before the key existed."""
        from repro.nas import SearchConfig
        raw = config_to_dict(SearchConfig(scale=unit_scale))
        del raw["ref_macs"]
        assert config_from_dict(raw).scalarization.ref_macs is None


class TestGenomeSerialization:
    def test_roundtrip(self, c10_space, rng):
        genome = c10_space.random_genome(rng)
        recovered = genome_from_dict(genome_to_dict(genome))
        assert recovered == genome

    def test_dict_is_json_safe(self, c10_space, rng):
        import json
        payload = genome_to_dict(c10_space.random_genome(rng))
        json.dumps(payload)  # must not raise


class TestSearchResult:
    def test_pareto_trials_nondominated(self, finished_run):
        from repro.bo import dominates
        pareto = finished_run.pareto_trials()
        assert pareto
        for a in pareto:
            for b in pareto:
                if a is not b:
                    assert not dominates((a.accuracy, a.size_kb),
                                         (b.accuracy, b.size_kb))

    def test_score_trajectory_monotone(self, finished_run):
        trajectory = finished_run.score_trajectory()
        assert len(trajectory) == len(finished_run.trials)
        assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] == finished_run.best_trial().score

    def test_search_cost_positive(self, finished_run):
        assert finished_run.search_gpu_hours() > 0

    def test_summary_renders(self, finished_run):
        text = finished_run.summary()
        assert "trials" in text
        assert "GPU-hours" in text

    def test_json_roundtrip(self, finished_run, tmp_path):
        path = str(tmp_path / "result.json")
        finished_run.save(path)
        loaded = SearchResult.load(path)
        assert len(loaded.trials) == len(finished_run.trials)
        assert loaded.config.mode.name == finished_run.config.mode.name
        assert loaded.config.scale.name == finished_run.config.scale.name
        for a, b in zip(loaded.trials, finished_run.trials):
            assert a.genome == b.genome
            assert a.score == pytest.approx(b.score)
        assert len(loaded.final_models) == len(finished_run.final_models)
        for a, b in zip(loaded.final_models, finished_run.final_models):
            assert a.genome == b.genome
            assert a.accuracy == pytest.approx(b.accuracy)

    def test_trial_dict_roundtrip(self, finished_run):
        trial = finished_run.trials[0]
        recovered = TrialResult.from_dict(trial.as_dict())
        assert recovered.genome == trial.genome
        assert recovered.score == pytest.approx(trial.score)

    def test_timing_fields_roundtrip(self, finished_run):
        trial = finished_run.trials[0]
        assert trial.wall_time_s is not None
        assert set(trial.phase_times) == {"train", "ptq", "qaft", "eval"}
        recovered = TrialResult.from_dict(trial.as_dict())
        assert recovered.wall_time_s == trial.wall_time_s
        assert recovered.phase_times == trial.phase_times

    def test_from_dict_accepts_pre_timing_records(self, finished_run):
        """Cache files written before the timing fields must still load."""
        legacy = finished_run.trials[0].as_dict()
        del legacy["wall_time_s"]
        del legacy["phase_times"]
        recovered = TrialResult.from_dict(legacy)
        assert recovered.wall_time_s is None
        assert recovered.phase_times is None
        assert recovered.genome == finished_run.trials[0].genome

    def test_fronts_consistent(self, finished_run):
        candidate_front = finished_run.candidate_front()
        assert candidate_front
        sizes = [size for _, size in candidate_front]
        assert sizes == sorted(sizes)

    def test_best_trial_empty_raises(self, finished_run):
        empty = SearchResult(config=finished_run.config, trials=[])
        with pytest.raises(ValueError):
            empty.best_trial()

    def test_from_dict_refuses_mistyped_trials(self, finished_run):
        payload = {"config": config_to_dict(finished_run.config),
                   "trials": 5, "final_models": []}
        with pytest.raises(ResultError, match="not a search result"):
            SearchResult.from_dict(payload)


class TestLoadRefusesNonResults:
    """Whatever the path holds, if it is not a saved run ``load`` raises
    one :class:`ResultError` (a ``ValueError``) that names the path."""

    @pytest.mark.parametrize("content", [
        "[]", '{"a": 1}', '{"config": {}, "trials": [], "final_models": []}',
        '{"config": ', None, "directory"],
        ids=["list", "object", "empty-config", "truncated", "missing",
             "directory"])
    def test_raises_one_error_naming_the_path(self, content, tmp_path):
        path = tmp_path / "result.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        with pytest.raises(ResultError, match=re.escape(str(path))) as info:
            SearchResult.load(str(path))
        assert isinstance(info.value, ValueError)
        assert "\n" not in str(info.value)


class TestFinalModels:
    def test_final_models_deployable(self, finished_run):
        for model in finished_run.final_models:
            assert 0.0 <= model.accuracy <= 1.0
            assert model.size_kb > 0
            assert model.gpu_hours > 0
            assert model.candidate_size_kb is not None

    def test_final_size_matches_candidate_size(self, finished_run):
        """Final training does not change the architecture or policy, so
        deployed size must equal the in-search size."""
        for model in finished_run.final_models:
            assert model.size_kb == pytest.approx(model.candidate_size_kb,
                                                  rel=1e-6)
