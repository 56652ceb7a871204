"""Cross-module integration tests: the full pipeline, mechanism checks.

These tests verify the paper's *mechanisms* end-to-end on real training:
PTQ hurts at low bitwidths, QAFT recovers, BO consumes the scalarized
scores, final training deploys quantized models.
"""

import numpy as np
import pytest

from repro.bo import scalarize
from repro.data import make_synthetic_dataset
from repro.nas import BOMPNAS, SearchConfig, get_mode, get_scale
from repro.nn import (SGD, CosineDecayLR, Trainer, evaluate_classifier,
                      load_state_dict, state_dict)
from repro.quant import (apply_policy, calibrate,
                         quantization_aware_finetune, remove_quantizers)
from repro.space import SearchSpace, build_model


@pytest.fixture(scope="module")
def learnable_dataset():
    """Big enough to learn on, small enough for CI: ~70% accuracy after a
    dozen epochs for the seed net."""
    return make_synthetic_dataset("it-c10", 10, n_train=1000, n_test=300,
                                  image_size=12, noise_sigma=0.6, seed=5)


@pytest.fixture(scope="module")
def trained_seed(learnable_dataset):
    space = SearchSpace("cifar10")
    rng = np.random.default_rng(0)
    model = build_model(space.seed_arch(), 10, rng=rng)
    steps = 14 * (1000 // 64 + 1)
    trainer = Trainer(model, SGD(model.parameters(),
                                 CosineDecayLR(0.08, steps)))
    trainer.fit(learnable_dataset.x_train, learnable_dataset.y_train,
                epochs=14, batch_size=64, rng=rng)
    _, accuracy = evaluate_classifier(model, learnable_dataset.x_test,
                                      learnable_dataset.y_test)
    return model, accuracy, space


class TestQuantizationMechanisms:
    def test_training_learns_task(self, trained_seed):
        _, accuracy, _ = trained_seed
        assert accuracy > 0.45  # chance is 0.10

    def test_ptq_degradation_monotone_in_bits(self, trained_seed,
                                              learnable_dataset):
        """Lower bitwidths lose more accuracy under PTQ — the effect that
        motivates mixed precision."""
        model, fp_accuracy, space = trained_seed
        snapshot = state_dict(model)
        accuracies = {}
        for bits in (8, 6, 4):
            remove_quantizers(model)
            load_state_dict(model, snapshot)
            apply_policy(model, space.seed_policy(bits))
            calibrate(model, learnable_dataset.x_train[:256])
            _, accuracies[bits] = evaluate_classifier(
                model, learnable_dataset.x_test, learnable_dataset.y_test)
        remove_quantizers(model)
        load_state_dict(model, snapshot)
        assert accuracies[8] >= fp_accuracy - 0.05  # 8-bit near lossless
        assert accuracies[4] <= accuracies[8] + 0.02  # 4-bit no better
        # 4-bit PTQ visibly hurts (the paper's core premise)
        assert accuracies[4] < fp_accuracy - 0.02

    def test_qaft_recovers_4bit_accuracy(self, trained_seed,
                                         learnable_dataset):
        """One epoch of QAFT recovers a substantial part of the 4-bit PTQ
        loss — the paper's central claim."""
        model, fp_accuracy, space = trained_seed
        snapshot = state_dict(model)
        remove_quantizers(model)
        load_state_dict(model, snapshot)
        apply_policy(model, space.seed_policy(4))
        calibrate(model, learnable_dataset.x_train[:256])
        _, ptq_accuracy = evaluate_classifier(
            model, learnable_dataset.x_test, learnable_dataset.y_test)
        quantization_aware_finetune(
            model, learnable_dataset.x_train, learnable_dataset.y_train,
            epochs=1, batch_size=64, rng=np.random.default_rng(1))
        _, qaft_accuracy = evaluate_classifier(
            model, learnable_dataset.x_test, learnable_dataset.y_test)
        remove_quantizers(model)
        load_state_dict(model, snapshot)
        assert qaft_accuracy > ptq_accuracy - 0.02
        # recovery: QAFT closes at least part of the PTQ gap on average;
        # require it not to be catastrophically below float
        assert qaft_accuracy > fp_accuracy - 0.15

    def test_mixed_policy_between_homogeneous_sizes(self, trained_seed):
        from repro.quant import model_size_bits
        model, _, space = trained_seed
        rng = np.random.default_rng(3)
        mixed = space.random_policy(rng)
        size_mixed = model_size_bits(model, mixed)
        size_4 = model_size_bits(model, space.seed_policy(4))
        size_8 = model_size_bits(model, space.seed_policy(8))
        assert size_4 <= size_mixed <= size_8


class TestSearchIntegration:
    def test_scores_consistent_with_scalarization(self, learnable_dataset):
        scale = get_scale("unit")
        config = SearchConfig(scale=scale, seed=1)
        dataset = learnable_dataset.subsample(scale.n_train, scale.n_test,
                                              np.random.default_rng(0))
        nas = BOMPNAS(config, dataset)
        result = nas.run(final_training=False)
        for trial in result.trials:
            expected = scalarize(trial.accuracy, trial.size_bits,
                                 config.scalarization)
            assert trial.score == pytest.approx(expected)

    def test_modes_produce_distinct_behaviour(self, learnable_dataset):
        """PTQ and QAFT modes must evaluate the same genome to different
        accuracies at 4 bits, because QAFT fine-tunes after quantization.
        Needs enough training that the model is off chance level."""
        from dataclasses import replace
        from repro.space import MixedPrecisionGenome
        scale = replace(get_scale("unit"), name="it", early_epochs=5,
                        n_train=500, n_test=200, image_size=12,
                        batch_size=64)
        dataset = learnable_dataset.subsample(scale.n_train, scale.n_test,
                                              np.random.default_rng(0))
        accs = {}
        for mode in ("mp_ptq", "mp_qaft"):
            config = SearchConfig(mode=get_mode(mode), scale=scale, seed=1)
            nas = BOMPNAS(config, dataset)
            # 4-bit: coarse enough that QAFT's weight updates are visible
            # (at 8 bits PTQ is lossless and the modes coincide)
            genome = MixedPrecisionGenome(nas.space.seed_arch(),
                                          nas.space.seed_policy(4))
            accs[mode] = nas.evaluate_candidate(genome, 0)[0].accuracy
        assert accs["mp_ptq"] != accs["mp_qaft"]

    def test_full_pipeline_with_final_training(self, learnable_dataset):
        scale = get_scale("unit")
        dataset = learnable_dataset.subsample(scale.n_train, scale.n_test,
                                              np.random.default_rng(0))
        config = SearchConfig(scale=scale, seed=2)
        result = BOMPNAS(config, dataset).run(final_training=True)
        assert result.final_models
        front = result.final_front()
        sizes = [size for _, size in front]
        assert sizes == sorted(sizes)
        assert result.final_training_gpu_hours() > 0
