"""Tests for the BOMP-NAS search loop itself."""

import numpy as np
import pytest

from repro.nas import BOMPNAS, SearchConfig, get_mode
from repro.space import MixedPrecisionGenome


@pytest.fixture
def nas(unit_config, tiny_dataset):
    return BOMPNAS(unit_config, tiny_dataset)


class TestEvaluateCandidate:
    def test_trial_fields_populated(self, nas, c10_space, rng):
        genome = c10_space.random_genome(rng)
        results = nas.evaluate_candidate(genome, index=0)
        assert len(results) == 1
        trial = results[0]
        assert 0.0 <= trial.accuracy <= 1.0
        assert 0.0 <= trial.fp_accuracy <= 1.0
        assert trial.size_bits > 0
        assert trial.size_kb == pytest.approx(trial.size_bits / 8192)
        assert trial.macs > 0
        assert trial.params > 0
        assert trial.gpu_hours > 0
        assert np.isfinite(trial.score)

    def test_quantized_size_below_float(self, nas, c10_space, rng):
        genome = c10_space.random_genome(rng)
        trial = nas.evaluate_candidate(genome, index=0)[0]
        # quantized deployed size is far below the float32 parameter size
        assert trial.size_bits < trial.params * 32

    def test_ptq_mode_skips_qaft(self, tiny_dataset, unit_scale):
        config = SearchConfig(mode=get_mode("mp_ptq"), scale=unit_scale)
        nas = BOMPNAS(config, tiny_dataset)
        genome = nas.space.random_genome(nas.rng)
        trial = nas.evaluate_candidate(genome, index=0)[0]
        ptq_hours = trial.gpu_hours
        config_qaft = SearchConfig(mode=get_mode("mp_qaft"),
                                   scale=unit_scale)
        nas_qaft = BOMPNAS(config_qaft, tiny_dataset)
        trial_qaft = nas_qaft.evaluate_candidate(genome, index=0)[0]
        assert trial_qaft.gpu_hours > ptq_hours

    def test_fp_mode_scores_against_8bit_size(self, tiny_dataset,
                                              unit_scale):
        config = SearchConfig(mode=get_mode("fp_nas"), scale=unit_scale)
        nas = BOMPNAS(config, tiny_dataset)
        genome = nas.space.seed_genome()
        trial = nas.evaluate_candidate(genome, index=0)[0]
        assert trial.accuracy == trial.fp_accuracy
        assert trial.size_kb == pytest.approx(76.08, abs=0.2)

    def test_policies_per_trial_extension(self, tiny_dataset, unit_scale):
        config = SearchConfig(mode=get_mode("mp_qaft"), scale=unit_scale,
                              policies_per_trial=3)
        nas = BOMPNAS(config, tiny_dataset)
        genome = nas.space.random_genome(nas.rng)
        results = nas.evaluate_candidate(genome, index=0)
        assert len(results) == 3
        # all share the architecture, policies differ
        archs = {r.genome.arch.as_tuple() for r in results}
        assert len(archs) == 1
        policies = {r.genome.policy for r in results}
        assert len(policies) >= 2
        # re-used early training: follow-up policies cost no extra FP epochs
        assert results[1].gpu_hours < results[0].gpu_hours


class TestModes:
    def test_fixed_modes_pin_policy(self, tiny_dataset, unit_scale):
        for mode_name, bits in (("fixed8_ptq", 8), ("fixed4_qaft", 4)):
            config = SearchConfig(mode=get_mode(mode_name),
                                  scale=unit_scale)
            nas = BOMPNAS(config, tiny_dataset)
            genome = nas._sample_genome(nas.rng)
            assert set(genome.policy.as_dict().values()) == {bits}
            mutant = nas._mutate_genome(genome, nas.rng)
            assert set(mutant.policy.as_dict().values()) == {bits}

    def test_mp_mode_samples_mixed(self, nas):
        bits = set()
        for _ in range(5):
            genome = nas._sample_genome(nas.rng)
            bits |= set(genome.policy.as_dict().values())
        assert len(bits) > 1

    def test_class_count_mismatch_rejected(self, unit_scale, tiny_dataset):
        config = SearchConfig(dataset="cifar100", scale=unit_scale)
        with pytest.raises(ValueError):
            BOMPNAS(config, tiny_dataset)  # 10-class data, 100-class config


class TestTrainingOptimizer:
    def test_adam_under_cosine_decay_at_module_rate(self, nas):
        """Early and final training run Adam from ``LEARNING_RATE``,
        decayed to zero over the training steps; no config field sets
        the optimizer or its rates."""
        import dataclasses
        from repro.nas.config import LEARNING_RATE
        from repro.nn import Adam, CosineDecayLR
        from repro.space import build_model
        model = build_model(nas.space.seed_arch(), 10)
        optimizer = nas.make_training_optimizer(model, epochs=3)
        scale = nas.config.scale
        steps = 3 * -(-scale.n_train // scale.batch_size)
        assert isinstance(optimizer, Adam)
        assert isinstance(optimizer.schedule, CosineDecayLR)
        assert optimizer.schedule.total_steps == steps
        assert optimizer.schedule.lr_at(0) == LEARNING_RATE
        assert optimizer.schedule.lr_at(steps) == pytest.approx(0.0)
        fields = {f.name for f in dataclasses.fields(SearchConfig)}
        assert not fields & {"optimizer", "learning_rate",
                             "qaft_learning_rate"}


class TestRun:
    def test_full_run_structure(self, nas):
        result = nas.run(final_training=True)
        assert len(result.trials) == nas.config.scale.trials
        assert [t.index for t in result.trials] == \
            list(range(len(result.trials)))
        assert result.final_models
        # every final model maps back to a Pareto trial
        pareto_indices = {t.index for t in result.pareto_trials()}
        for model in result.final_models:
            assert model.trial_index in pareto_indices

    def test_first_trial_is_seed_arch(self, nas):
        result = nas.run(final_training=False)
        assert result.trials[0].genome.arch == nas.space.seed_arch()

    def test_progress_callback(self, unit_config, tiny_dataset):
        seen = []
        nas = BOMPNAS(unit_config, tiny_dataset,
                      progress=lambda t: seen.append(t.index))
        nas.run(final_training=False)
        assert seen == list(range(unit_config.scale.trials))

    def test_deterministic_given_seed(self, unit_config, tiny_dataset):
        r1 = BOMPNAS(unit_config, tiny_dataset).run(final_training=False)
        r2 = BOMPNAS(unit_config, tiny_dataset).run(final_training=False)
        assert [t.genome for t in r1.trials] == \
            [t.genome for t in r2.trials]
        assert [t.score for t in r1.trials] == \
            pytest.approx([t.score for t in r2.trials])

    def test_cifar100_run(self, tiny_dataset_100, unit_scale):
        config = SearchConfig(dataset="cifar100", scale=unit_scale, seed=2)
        result = BOMPNAS(config, tiny_dataset_100).run(final_training=False)
        assert len(result.trials) == unit_scale.trials
