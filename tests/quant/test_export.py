"""Tests for the binary deployment exporter (bit-packing and roundtrip)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (apply_policy, calibrate, export_model,
                         exported_size_kb, import_model, model_size_kb,
                         pack_bits, rebuild_into, unpack_bits,
                         verify_roundtrip)
from repro.space import SearchSpace, build_model

from .test_quantizers import tie_model


@pytest.fixture
def quantized_model(c10_space, rng, tiny_dataset):
    model = build_model(c10_space.seed_arch(), 10, rng=rng)
    apply_policy(model, c10_space.seed_policy(4))
    calibrate(model, tiny_dataset.x_train[:32])
    return model


class TestBitPacking:
    @pytest.mark.parametrize("bits", [1, 3, 4, 5, 7, 8, 12])
    def test_roundtrip_random_codes(self, bits, rng):
        codes = rng.integers(0, 2 ** bits, size=137).astype(np.uint64)
        packed = pack_bits(codes, bits)
        recovered = unpack_bits(packed, bits, len(codes))
        np.testing.assert_array_equal(recovered, codes)

    def test_packed_length_is_dense(self, rng):
        codes = rng.integers(0, 16, size=100).astype(np.uint64)
        packed = pack_bits(codes, 4)
        assert len(packed) == 50  # 100 x 4 bits = 50 bytes

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([16], dtype=np.uint64), 4)

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.uint64), 4) == b""
        assert unpack_bits(b"", 4, 0).size == 0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0], dtype=np.uint64), 0)

    def test_truncated_bitstream_rejected(self):
        codes = np.arange(16, dtype=np.uint64)
        packed = pack_bits(codes, 5)
        with pytest.raises(ValueError):
            unpack_bits(packed[:-1], 5, len(codes))


def _pack_bits_reference(codes, bits: int) -> bytes:
    """The original per-code packer the vectorized version must match."""
    out = bytearray()
    acc = 0
    acc_bits = 0
    for code in codes:
        acc |= int(code) << acc_bits
        acc_bits += bits
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


class TestBitPackingProperties:
    """Hypothesis: the vectorized packer is a lossless, format-stable
    drop-in for the per-code reference (LSB-first bitstream)."""

    @given(bits=st.integers(1, 8), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_and_format(self, bits, data):
        # sizes deliberately include 0 and totals not divisible by 8
        size = data.draw(st.integers(0, 67))
        codes = np.asarray(
            data.draw(st.lists(st.integers(0, 2 ** bits - 1),
                               min_size=size, max_size=size)),
            dtype=np.uint64)
        packed = pack_bits(codes, bits)
        assert packed == _pack_bits_reference(codes, bits)
        assert len(packed) == -(-size * bits // 8)
        recovered = unpack_bits(packed, bits, size)
        np.testing.assert_array_equal(recovered, codes)
        assert recovered.dtype == np.uint64


class TestExport:
    def test_requires_quantized_model(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        with pytest.raises(ValueError):
            export_model(model)

    def test_roundtrip_exact(self, quantized_model):
        data = export_model(quantized_model)
        errors = verify_roundtrip(quantized_model, data)
        assert errors  # every quantized layer checked
        assert max(errors.values()) < 1e-5

    def test_codes_are_the_fake_quantizers_levels(self):
        """The container holds the levels ``forward`` rounds to, even
        where its float32 quotient sits exactly on a half and a float64
        re-derivation would round the other way."""
        model = tie_model()
        layer = model.layers[0]
        payload = import_model(export_model(model))[0]
        np.testing.assert_array_equal(
            payload.dequantized_weights(),
            layer.weight_quantizer.forward(layer.weight.data))

    def test_container_parses(self, quantized_model):
        data = export_model(quantized_model)
        layers = import_model(data)
        assert len(layers) == 23  # seed arch instantiates all slots
        for layer in layers:
            assert layer.bits == 4
            assert layer.scales.size == layer.shape[layer.channel_axis]
            assert layer.activation is not None  # calibrated

    def test_real_size_matches_accounting(self, quantized_model):
        """The actual artifact byte length must track the analytic size
        model within a small overhead (headers, padding)."""
        data = export_model(quantized_model)
        real_kb = exported_size_kb(data)
        analytic_kb = model_size_kb(quantized_model)
        assert real_kb == pytest.approx(analytic_kb, rel=0.10)

    def test_lower_bits_smaller_artifact(self, c10_space, rng,
                                         tiny_dataset):
        sizes = {}
        for bits in (4, 8):
            model = build_model(c10_space.seed_arch(), 10, rng=rng)
            apply_policy(model, c10_space.seed_policy(bits))
            calibrate(model, tiny_dataset.x_train[:32])
            sizes[bits] = len(export_model(model))
        assert sizes[4] < sizes[8]

    def test_bad_magic_rejected(self, quantized_model):
        data = export_model(quantized_model)
        with pytest.raises(ValueError):
            import_model(b"XXXX" + data[4:])

    def test_mixed_policy_respected(self, c10_space, rng, tiny_dataset):
        policy = c10_space.seed_policy(8).with_bits("conv2", 4)
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        apply_policy(model, policy)
        calibrate(model, tiny_dataset.x_train[:32])
        layers = import_model(export_model(model))
        bits_by_name = {l.name: l.bits for l in layers}
        assert bits_by_name["conv2.conv"] == 4
        assert bits_by_name["stem.conv"] == 8

    def test_depthwise_layers_roundtrip(self, quantized_model):
        """Depthwise weights (channel axis 2, 3-D shape) survive export."""
        layers = import_model(export_model(quantized_model))
        depthwise = [l for l in layers if ".dw" in l.name]
        assert depthwise
        for layer in depthwise:
            assert len(layer.shape) == 3
            assert layer.channel_axis == 2
            assert layer.scales.size == layer.shape[2]
            assert layer.codes.size == int(np.prod(layer.shape))

    def test_biasless_layers_store_empty_bias(self, quantized_model):
        """MobileNetV2 convs carry no bias; only the classifier does."""
        layers = import_model(export_model(quantized_model))
        by_name = {l.name: l for l in layers}
        assert by_name["stem.conv"].bias.size == 0
        dense = [l for l in layers if len(l.shape) == 2]
        assert dense and all(l.bias.size == l.shape[1] for l in dense)

    def test_uncalibrated_activation_nan_sentinel(self, c10_space, rng):
        """No calibration -> act recorded absent (bits 0, NaN range)."""
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        apply_policy(model, c10_space.seed_policy(4))
        layers = import_model(export_model(model))
        for layer in layers:
            assert layer.act_bits == 0
            assert layer.act_range is None
            assert layer.activation is None


class TestRebuild:
    def test_rebuilt_logits_bit_identical(self, quantized_model, c10_space,
                                          tiny_dataset):
        """A model rebuilt from the container alone reproduces the exact
        logits of the pre-export quantized model."""
        data = export_model(quantized_model)
        fresh = build_model(c10_space.seed_arch(), 10,
                            rng=np.random.default_rng(0))
        rebuild_into(fresh, data)
        quantized_model.set_training(False)
        fresh.set_training(False)
        x = tiny_dataset.x_test[:16]
        expected = quantized_model.forward(x)
        np.testing.assert_array_equal(fresh.forward(x), expected)

    def test_rebuild_is_idempotent_on_grid(self, quantized_model,
                                           c10_space):
        """Re-exporting a rebuilt model yields byte-identical containers
        (the pinned scales keep weights exactly on their grid)."""
        data = export_model(quantized_model)
        fresh = build_model(c10_space.seed_arch(), 10,
                            rng=np.random.default_rng(0))
        rebuild_into(fresh, data)
        assert export_model(fresh) == data

    def test_rebuild_rejects_architecture_mismatch(self, quantized_model,
                                                   c10_space, rng):
        data = export_model(quantized_model)
        other = build_model(c10_space.seed_arch(), 100, rng=rng)
        with pytest.raises(ValueError):
            rebuild_into(other, data)
