"""Tests for padding and patch-extraction helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F

from .test_layer_oracle import _layout, _values


class TestSamePadding:
    def test_stride1_odd_kernel_is_symmetric(self):
        assert F.same_padding(8, 3, 1) == (1, 1)
        assert F.same_padding(8, 5, 1) == (2, 2)

    def test_stride1_even_kernel_pads_more_after(self):
        before, after = F.same_padding(8, 2, 1)
        assert (before, after) == (0, 1)
        before, after = F.same_padding(8, 4, 1)
        assert (before, after) == (1, 2)

    def test_stride2_output_is_ceil(self):
        for in_size in (7, 8, 9, 16):
            before, after = F.same_padding(in_size, 3, 2)
            out = (in_size + before + after - 3) // 2 + 1
            assert out == -(-in_size // 2)

    def test_kernel1_no_padding(self):
        assert F.same_padding(10, 1, 1) == (0, 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            F.same_padding(0, 3, 1)
        with pytest.raises(ValueError):
            F.same_padding(8, 3, 0)


class TestConvOutputSize:
    def test_same_is_ceil_division(self):
        assert F.conv_output_size(16, 3, 1, "same") == 16
        assert F.conv_output_size(16, 3, 2, "same") == 8
        assert F.conv_output_size(15, 3, 2, "same") == 8
        assert F.conv_output_size(15, 7, 2, "same") == 8

    def test_valid(self):
        assert F.conv_output_size(16, 3, 1, "valid") == 14
        assert F.conv_output_size(16, 3, 2, "valid") == 7

    def test_valid_too_small_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 3, 1, "valid")

    def test_unknown_padding_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(16, 3, 1, "reflect")


class TestPatches:
    def test_extract_shape(self, rng):
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        patches = F.extract_patches(x, kernel=3, stride=1)
        assert patches.shape == (2, 4, 4, 3, 3, 3)

    def test_extract_with_stride(self, rng):
        x = rng.normal(size=(1, 8, 8, 2)).astype(np.float32)
        patches = F.extract_patches(x, kernel=2, stride=2)
        assert patches.shape == (1, 4, 4, 2, 2, 2)

    def test_extract_values_match_slices(self, rng):
        x = rng.normal(size=(1, 5, 5, 1)).astype(np.float32)
        patches = F.extract_patches(x, kernel=3, stride=1)
        np.testing.assert_array_equal(patches[0, 1, 2, 0],
                                      x[0, 1:4, 2:5, 0])

    def test_scatter_is_adjoint_of_extract(self, rng):
        """<extract(x), g> == <x, scatter(g)> — the defining property of
        the backward pass."""
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        patches = F.extract_patches(x, kernel=3, stride=2)
        g = rng.normal(size=patches.shape).astype(np.float32)
        lhs = float((patches * g).sum())
        scattered = F.scatter_patches(g, x.shape, kernel=3, stride=2)
        rhs = float((x * scattered).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_pad_and_crop_roundtrip(self, rng):
        x = rng.normal(size=(1, 7, 9, 2)).astype(np.float32)
        padded, pad_h, pad_w = F.pad_input(x, kernel=5, stride=2,
                                           padding="same")
        cropped = F.crop_padding(padded, pad_h, pad_w)
        np.testing.assert_array_equal(cropped, x)

    def test_pad_input_valid_is_identity(self, rng):
        x = rng.normal(size=(1, 7, 7, 1)).astype(np.float32)
        padded, pad_h, pad_w = F.pad_input(x, 3, 1, "valid")
        assert padded is x
        assert pad_h == (0, 0) and pad_w == (0, 0)

    def test_pad_input_rejects_non_nhwc(self, rng):
        with pytest.raises(ValueError):
            F.pad_input(np.zeros((3, 3)), 3, 1, "same")


def _pad_layout(x, kind):
    """``x`` F-contiguous, or in one of the layer oracle's layouts."""
    return np.asfortranarray(x) if kind == "fortran" else _layout(x, kind)


pad_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 3), "h": st.integers(1, 9), "w": st.integers(1, 9),
    "c": st.integers(1, 6), "kernel": st.integers(1, 7),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from(["same", "valid"]),
    "layout": st.sampled_from(["contiguous", "channel_major", "fortran",
                               "cropped"]),
    # int32: the integer engine's reference interpreter pads codes
    "dtype": st.sampled_from([np.float32, np.float64, np.int32]),
})


class TestPadTileParity:
    """The hand-rolled pad and tile against the numpy calls they replace."""

    @given(case=pad_cases)
    @settings(max_examples=300, deadline=None)
    def test_pad_input_is_np_pad(self, case):
        rng = np.random.default_rng(case["seed"])
        h, w, k = case["h"], case["w"], case["kernel"]
        if case["padding"] == "valid":
            h, w = max(h, k), max(w, k)
        x = _values(rng, (case["n"], h, w, case["c"]), signed_zeros=True)
        x = _pad_layout(x.astype(case["dtype"]), case["layout"])
        padded, pad_h, pad_w = F.pad_input(x, k, case["stride"],
                                           case["padding"])
        if pad_h == (0, 0) and pad_w == (0, 0):
            assert padded is x
            return
        want = np.pad(x, ((0, 0), pad_h, pad_w, (0, 0)))
        assert padded.dtype == want.dtype
        assert padded.shape == want.shape
        assert padded.strides == want.strides
        assert padded.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 40),
           pixels=st.integers(1, 30),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_channel_rows_tile_is_np_tile(self, seed, c, pixels, dtype):
        rng = np.random.default_rng(seed)
        x = np.zeros((2, pixels, 1, c), dtype=np.float32)
        _, tile = F.channel_rows(x)
        v = _values(rng, (c,), signed_zeros=True).astype(dtype)
        got, want = tile(v), np.tile(v, pixels)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
