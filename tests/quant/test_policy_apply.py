"""Tests for quantization policies and attaching them to models."""

import numpy as np
import pytest

from repro.nn import evaluate_classifier, state_dict, load_state_dict
from repro.quant import (QuantizationPolicy, apply_policy, calibrate,
                         is_quantized, quantizable_layers,
                         quantization_aware_finetune, remove_quantizers)
from repro.space import SearchSpace, build_model, quantization_slot_names


@pytest.fixture
def seed_model(c10_space, rng):
    return build_model(c10_space.seed_arch(), num_classes=10, rng=rng)


class TestQuantizationPolicy:
    def test_homogeneous(self):
        policy = QuantizationPolicy.homogeneous(["a", "b"], 8)
        assert policy.bits_for("a") == 8
        assert policy.is_homogeneous()
        assert policy.mean_bits() == 8

    def test_mixed_stats(self):
        policy = QuantizationPolicy({"a": 4, "b": 8, "c": 6})
        assert policy.min_bits() == 4
        assert policy.max_bits() == 8
        assert policy.mean_bits() == 6
        assert not policy.is_homogeneous()

    def test_invalid_bitwidth_rejected(self):
        with pytest.raises(ValueError):
            QuantizationPolicy({"a": 3})

    def test_custom_allowed(self):
        policy = QuantizationPolicy({"a": 2}, allowed=(2, 16))
        assert policy.bits_for("a") == 2

    def test_unknown_slot_raises(self):
        policy = QuantizationPolicy({"a": 4})
        with pytest.raises(KeyError):
            policy.bits_for("zzz")

    def test_with_bits_copies(self):
        policy = QuantizationPolicy({"a": 4, "b": 8})
        updated = policy.with_bits("a", 6)
        assert updated.bits_for("a") == 6
        assert policy.bits_for("a") == 4

    def test_equality_and_hash(self):
        a = QuantizationPolicy({"x": 4, "y": 8})
        b = QuantizationPolicy({"y": 8, "x": 4})
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuantizationPolicy({})

    def test_slot_names_are_23(self):
        assert len(quantization_slot_names()) == 23


class TestApplyPolicy:
    def test_all_layers_quantized(self, seed_model, c10_space):
        layers = apply_policy(seed_model, c10_space.seed_policy(8))
        assert layers == quantizable_layers(seed_model)
        assert is_quantized(seed_model)
        for layer in layers:
            assert layer.weight_quantizer is not None
            assert layer.input_quantizer is not None

    def test_slot_bits_respected(self, seed_model, c10_space):
        policy = c10_space.seed_policy(8).with_bits("stem", 4)
        apply_policy(seed_model, policy)
        for layer in quantizable_layers(seed_model):
            expected = 4 if layer.quant_slot == "stem" else 8
            assert layer.weight_quantizer.bits == expected

    def test_untagged_layer_raises(self, rng):
        from repro.nn import Conv2D, GlobalAvgPool2D, Dense, Sequential
        model = Sequential([Conv2D(3, 4, 3, rng=rng), GlobalAvgPool2D(),
                            Dense(4, 2, rng=rng)])
        with pytest.raises(ValueError):
            apply_policy(model, QuantizationPolicy({"stem": 8}))

    def test_remove_restores_float(self, seed_model, c10_space, rng,
                                   tiny_dataset):
        x = tiny_dataset.x_train[:16]
        before = seed_model.predict(x)
        apply_policy(seed_model, c10_space.seed_policy(4))
        calibrate(seed_model, x)
        quantized = seed_model.predict(x)
        remove_quantizers(seed_model)
        after = seed_model.predict(x)
        np.testing.assert_allclose(before, after, rtol=1e-6)
        assert not np.allclose(before, quantized)


class TestCalibrate:
    def test_freezes_all_quantizers(self, seed_model, c10_space,
                                    tiny_dataset):
        apply_policy(seed_model, c10_space.seed_policy(8))
        calibrate(seed_model, tiny_dataset.x_train, batch_size=32)
        for layer in quantizable_layers(seed_model):
            assert layer.input_quantizer.frozen

    def test_without_apply_raises(self, seed_model, tiny_dataset):
        with pytest.raises(RuntimeError):
            calibrate(seed_model, tiny_dataset.x_train)

    def test_ptq_8bit_accuracy_close_to_float(self, seed_model, c10_space,
                                              tiny_dataset, rng):
        # train briefly so accuracy is non-degenerate
        from repro.nn import SGD, ConstantLR, Trainer
        trainer = Trainer(seed_model,
                          SGD(seed_model.parameters(), ConstantLR(0.05)))
        trainer.fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=2,
                    batch_size=32, rng=rng)
        _, fp_acc = evaluate_classifier(seed_model, tiny_dataset.x_test,
                                        tiny_dataset.y_test)
        apply_policy(seed_model, c10_space.seed_policy(8))
        calibrate(seed_model, tiny_dataset.x_train)
        _, q_acc = evaluate_classifier(seed_model, tiny_dataset.x_test,
                                       tiny_dataset.y_test)
        assert abs(q_acc - fp_acc) <= 0.15


class TestQAFT:
    def test_requires_quantizers(self, seed_model, tiny_dataset):
        with pytest.raises(RuntimeError):
            quantization_aware_finetune(seed_model, tiny_dataset.x_train,
                                        tiny_dataset.y_train)

    def test_updates_latent_weights(self, seed_model, c10_space,
                                    tiny_dataset, rng):
        apply_policy(seed_model, c10_space.seed_policy(4))
        calibrate(seed_model, tiny_dataset.x_train)
        before = state_dict(seed_model)
        quantization_aware_finetune(seed_model, tiny_dataset.x_train,
                                    tiny_dataset.y_train, epochs=1,
                                    batch_size=32, rng=rng)
        after = state_dict(seed_model)
        changed = any(not np.allclose(before[k], after[k])
                      for k in before if k.startswith("param_"))
        assert changed

    def test_zero_epochs_noop(self, seed_model, c10_space, tiny_dataset,
                              rng):
        apply_policy(seed_model, c10_space.seed_policy(4))
        calibrate(seed_model, tiny_dataset.x_train)
        before = state_dict(seed_model)
        quantization_aware_finetune(seed_model, tiny_dataset.x_train,
                                    tiny_dataset.y_train, epochs=0, rng=rng)
        after = state_dict(seed_model)
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

