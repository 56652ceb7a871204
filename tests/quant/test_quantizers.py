"""Tests for the weight and activation fake quantizers."""

import numpy as np
import pytest

from repro.nn.conv import DepthwiseConv2D
from repro.nn.layers import Dense, GlobalAvgPool2D
from repro.nn.network import Sequential
from repro.quant import (ActivationQuantizer, QuantizationPolicy,
                         WeightQuantizer, apply_policy, quantization_error,
                         quantize_symmetric, symmetric_scale)
from repro.quant.observers import MinMaxObserver

#: one 7-bit depthwise channel (axis 2) drawn by the search-space parity
#: property: its third weight over the float32 channel scale is exactly
#: -60.5 in float32, which ``forward`` rounds half to even (-60), but
#: -60.50000173 in float64, which rounds to -61
TIE_WEIGHTS = np.array([-0.033485427498817444, 0.4132061302661896,
                        -1.270015001296997, 1.3224948644638062],
                       dtype=np.float32).reshape(2, 2, 1)
TIE_BITS = 7
TIE_LEVELS = [-2, 20, -60, 63]


def tie_model():
    """A 2x2 depthwise conv holding ``TIE_WEIGHTS`` at ``TIE_BITS``, then
    GAP and a Dense classifier; weight quantizers attached."""
    layer = DepthwiseConv2D(1, 2, name="dw")
    layer.quant_slot = "dw"
    layer.weight.data = TIE_WEIGHTS.copy()
    fc = Dense(1, 2, name="fc")
    fc.quant_slot = "fc"
    model = Sequential([layer, GlobalAvgPool2D(), fc])
    apply_policy(model, QuantizationPolicy({"dw": TIE_BITS, "fc": 8}))
    return model


class TestSymmetricQuantization:
    def test_scale_maps_max_to_top_level(self, rng):
        w = rng.normal(size=(3, 3, 4)).astype(np.float32)
        scale = symmetric_scale(w, bits=8)
        assert scale == pytest.approx(np.abs(w).max() / 127)

    def test_per_channel_scales(self, rng):
        w = np.zeros((2, 2, 3), dtype=np.float32)
        w[..., 0] = 1.0
        w[..., 1] = 2.0
        w[..., 2] = 4.0
        scale = symmetric_scale(w, bits=4, channel_axis=2)
        qmax = 2 ** 3 - 1
        np.testing.assert_allclose(scale, [1 / qmax, 2 / qmax, 4 / qmax])

    def test_zero_channel_safe(self):
        w = np.zeros((2, 2, 2), dtype=np.float32)
        w[..., 1] = 1.0
        scale = symmetric_scale(w, bits=8, channel_axis=2)
        assert scale[0] == 1.0  # guarded, no division by zero downstream
        q = quantize_symmetric(w, bits=8, channel_axis=2)
        assert np.isfinite(q).all()

    def test_quantized_values_on_grid(self, rng):
        w = rng.normal(size=(5, 5)).astype(np.float32)
        q = quantize_symmetric(w, bits=4)
        scale = symmetric_scale(w, bits=4)
        levels = q / scale
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-4)
        assert np.abs(levels).max() <= 7

    def test_idempotent(self, rng):
        w = rng.normal(size=(4, 4)).astype(np.float32)
        q1 = quantize_symmetric(w, bits=5)
        q2 = quantize_symmetric(q1, bits=5)
        np.testing.assert_allclose(q1, q2, atol=1e-6)

    def test_error_decreases_with_bits(self, rng):
        w = rng.normal(size=(100,)).astype(np.float32)
        errors = [quantization_error(w, bits) for bits in (4, 5, 6, 7, 8)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_high_bits_near_lossless(self, rng):
        w = rng.normal(size=(50,)).astype(np.float32)
        assert quantization_error(w, 16) < 1e-8

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            symmetric_scale(np.ones(3), bits=1)


class TestWeightQuantizer:
    def test_forward_quantizes(self, rng):
        q = WeightQuantizer(4, channel_axis=None)
        w = rng.normal(size=(6, 6)).astype(np.float32)
        np.testing.assert_allclose(q.forward(w),
                                   quantize_symmetric(w, 4), atol=1e-6)

    def test_backward_is_identity(self, rng):
        q = WeightQuantizer(4)
        g = rng.normal(size=(3, 3)).astype(np.float32)
        np.testing.assert_array_equal(q.backward(g), g)

    def test_32bit_passthrough(self, rng):
        q = WeightQuantizer(32)
        w = rng.normal(size=(3,)).astype(np.float32)
        assert q.forward(w) is w

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            WeightQuantizer(1)
        with pytest.raises(ValueError):
            WeightQuantizer(33)

    def test_levels_are_forwards_own_at_a_float32_tie(self):
        """``levels`` rounds exactly as ``forward`` does, so deployment
        codes times the widened scales give ``forward``'s weights."""
        q = WeightQuantizer(TIE_BITS, channel_axis=2)
        levels = q.levels(TIE_WEIGHTS)
        assert levels.dtype == np.int64
        assert levels.ravel().tolist() == TIE_LEVELS
        scale = np.asarray(q.scale_for(TIE_WEIGHTS), dtype=np.float64)
        np.testing.assert_array_equal(
            (levels * scale).astype(np.float32), q.forward(TIE_WEIGHTS))


class TestActivationQuantizer:
    def test_calibration_passthrough_then_quantize(self, rng):
        q = ActivationQuantizer(8)
        x = rng.uniform(-1, 3, size=(4, 4)).astype(np.float32)
        out = q.forward(x)
        np.testing.assert_array_equal(out, x)  # calibrating: identity
        q.freeze()
        out = q.forward(x)
        assert not np.array_equal(out, x)  # now quantized
        np.testing.assert_allclose(out, x, atol=0.05)  # but close at 8 bits

    def test_freeze_requires_observation(self):
        q = ActivationQuantizer(8)
        with pytest.raises(RuntimeError):
            q.freeze()

    def test_range_contains_zero(self):
        q = ActivationQuantizer(8)
        q.forward(np.array([[2.0, 3.0]], dtype=np.float32))
        q.freeze()
        scale, zero_point = q.quant_params()
        # zero must be exactly representable
        assert zero_point == round(zero_point)
        dequantized_zero = (zero_point - zero_point) * scale
        assert dequantized_zero == 0.0

    def test_values_on_affine_grid(self, rng):
        q = ActivationQuantizer(4)
        x = rng.uniform(-2, 2, size=(100,)).astype(np.float32)
        q.forward(x)
        q.freeze()
        out = q.forward(x)
        scale, zp = q.quant_params()
        levels = out / scale + zp
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-3)
        assert levels.min() >= -1e-3
        assert levels.max() <= 2 ** 4 - 1 + 1e-3

    def test_backward_masks_clipped(self):
        q = ActivationQuantizer(8, observer=MinMaxObserver())
        q.forward(np.array([0.0, 1.0], dtype=np.float32))
        q.freeze()
        x = np.array([-5.0, 0.5, 5.0], dtype=np.float32)
        q.forward(x)
        grad = q.backward(np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0])

    def test_backward_passthrough_while_calibrating(self, rng):
        q = ActivationQuantizer(8)
        g = rng.normal(size=(3,)).astype(np.float32)
        np.testing.assert_array_equal(q.backward(g), g)

    def test_quant_params_before_freeze_raises(self):
        with pytest.raises(RuntimeError):
            ActivationQuantizer(8).quant_params()

    def test_lower_bits_coarser(self, rng):
        x = rng.uniform(-1, 1, size=(1000,)).astype(np.float32)
        errors = []
        for bits in (8, 4, 2):
            q = ActivationQuantizer(bits)
            q.forward(x)
            q.freeze()
            errors.append(float(np.abs(q.forward(x) - x).mean()))
        assert errors[0] < errors[1] < errors[2]
