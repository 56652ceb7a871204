"""Save/load coverage for weight snapshots, including quantized models.

A PTQ'd or QAFT'd network's snapshot, loaded into a freshly built model
(same genome, same policy), must produce bit-identical forwards — which
requires the frozen activation-quantizer ranges to travel with the
weights.
"""

import numpy as np
import pytest

from repro.nn.serialization import load_state_dict, state_dict
from repro.quant.apply import apply_policy, calibrate, quantizable_layers
from repro.quant.qaft import quantization_aware_finetune
from repro.space.builder import build_model
from repro.space.space import SearchSpace

SPACE = SearchSpace("cifar10")


@pytest.fixture(scope="module")
def genome():
    return SPACE.random_genome(np.random.default_rng(11))


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(24, 8, 8, 3)).astype(np.float32)
    labels = rng.integers(0, 10, size=24)
    return x, labels


def fresh_model(genome, seed):
    return build_model(genome.arch, 10, rng=np.random.default_rng(seed))


class TestFullPrecisionRoundTrip:
    def test_state_dict_round_trip_bit_identical(self, genome, batch):
        x, _ = batch
        model = fresh_model(genome, seed=1)
        model.set_training(False)
        reference = model.forward(x)
        clone = fresh_model(genome, seed=99)  # different init on purpose
        load_state_dict(clone, state_dict(model))
        clone.set_training(False)
        assert np.array_equal(clone.forward(x), reference)

    def test_shape_mismatch_rejected(self, genome):
        model = fresh_model(genome, seed=1)
        snapshot = state_dict(model)
        snapshot["param_0"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(fresh_model(genome, seed=1), snapshot)

    def test_missing_params_rejected(self, genome):
        model = fresh_model(genome, seed=1)
        snapshot = state_dict(model)
        del snapshot["param_0"]
        with pytest.raises(ValueError, match="missing parameters"):
            load_state_dict(fresh_model(genome, seed=1), snapshot)


class TestQuantizedRoundTrip:
    def quantized_model(self, genome, x, seed, finetune=False, labels=None):
        model = fresh_model(genome, seed=seed)
        apply_policy(model, genome.policy)
        calibrate(model, x, batch_size=8)
        if finetune:
            quantization_aware_finetune(model, x, labels, epochs=1,
                                        batch_size=8,
                                        rng=np.random.default_rng(7))
        model.set_training(False)
        return model

    def test_ptq_model_round_trip_bit_identical(self, genome, batch):
        x, _ = batch
        model = self.quantized_model(genome, x, seed=1)
        reference = model.forward(x)
        snapshot = state_dict(model)

        clone = fresh_model(genome, seed=99)
        apply_policy(clone, genome.policy)  # fresh quantizers, uncalibrated
        load_state_dict(clone, snapshot)
        clone.set_training(False)
        for layer in quantizable_layers(clone):
            assert layer.input_quantizer.frozen  # ranges restored, no calib
        assert np.array_equal(clone.forward(x), reference)

    def test_qaft_model_round_trip_bit_identical(self, genome, batch):
        x, labels = batch
        model = self.quantized_model(genome, x, seed=1, finetune=True,
                                     labels=labels)
        reference = model.forward(x)
        snapshot = state_dict(model)

        clone = fresh_model(genome, seed=99)
        apply_policy(clone, genome.policy)
        load_state_dict(clone, snapshot)
        clone.set_training(False)
        assert np.array_equal(clone.forward(x), reference)

    def test_snapshot_records_one_range_per_quantizer(self, genome, batch):
        x, _ = batch
        model = self.quantized_model(genome, x, seed=1)
        snapshot = state_dict(model)
        aq_keys = [k for k in snapshot if k.startswith("aq_")]
        assert len(aq_keys) == len(quantizable_layers(model))
        for key in aq_keys:
            lo, hi = snapshot[key]
            assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi

    def test_calibrating_model_refused(self, genome, batch):
        x, _ = batch
        model = fresh_model(genome, seed=1)
        apply_policy(model, genome.policy)  # attached but never calibrated
        with pytest.raises(ValueError, match="still calibrating"):
            state_dict(model)

    def test_quantized_snapshot_needs_quantized_model(self, genome, batch):
        x, _ = batch
        model = self.quantized_model(genome, x, seed=1)
        snapshot = state_dict(model)
        bare = fresh_model(genome, seed=1)  # no quantizers attached
        with pytest.raises(ValueError, match="quantizer"):
            load_state_dict(bare, snapshot)

    def test_full_precision_snapshot_leaves_quantizers_alone(self, genome,
                                                             batch):
        x, _ = batch
        plain = fresh_model(genome, seed=1)
        snapshot = state_dict(plain)  # no aq_* keys
        model = self.quantized_model(genome, x, seed=2)
        ranges = [layer.input_quantizer._range
                  for layer in quantizable_layers(model)]
        load_state_dict(model, snapshot)
        assert [layer.input_quantizer._range
                for layer in quantizable_layers(model)] == ranges
