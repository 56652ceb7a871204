"""Integer kernels vs naive references, plus the no-float contract."""

import numpy as np
import pytest

from repro.infer import (conv2d_int, dense_int, depthwise_conv2d_int,
                         global_avg_pool_int)
from repro.infer.kernels import rounded_mean_int
from repro.nn import functional as F


def naive_conv(x, weight, stride, padding):
    """Loop reference for standard convolution on integer arrays."""
    kernel = weight.shape[0]
    padded, _, _ = F.pad_input(x, kernel, stride, padding)
    out_h = F.conv_output_size(x.shape[1], kernel, stride, padding)
    out_w = F.conv_output_size(x.shape[2], kernel, stride, padding)
    out = np.zeros((x.shape[0], out_h, out_w, weight.shape[3]),
                   dtype=np.int64)
    for n in range(x.shape[0]):
        for i in range(out_h):
            for j in range(out_w):
                patch = padded[n, i * stride:i * stride + kernel,
                               j * stride:j * stride + kernel, :]
                for co in range(weight.shape[3]):
                    out[n, i, j, co] = int(
                        (patch.astype(np.int64)
                         * weight[:, :, :, co].astype(np.int64)).sum())
    return out


@pytest.fixture
def int_rng():
    return np.random.default_rng(17)


class TestConv:
    @pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1),
                                               (3, 2), (5, 1)])
    def test_matches_naive(self, int_rng, kernel, stride):
        x = int_rng.integers(-128, 128, size=(2, 7, 7, 3)).astype(np.int32)
        w = int_rng.integers(-8, 8, size=(kernel, kernel, 3, 5)).astype(
            np.int32)
        got = conv2d_int(x, w, stride, "same")
        np.testing.assert_array_equal(got, naive_conv(x, w, stride, "same"))

    def test_rejects_float_input(self, int_rng):
        x = int_rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        w = np.ones((3, 3, 2, 2), dtype=np.int32)
        with pytest.raises(TypeError):
            conv2d_int(x, w, 1, "same")
        with pytest.raises(TypeError):
            conv2d_int(x.astype(np.int32), w.astype(np.float32), 1, "same")

    def test_depthwise_matches_per_channel_conv(self, int_rng):
        x = int_rng.integers(-64, 64, size=(2, 6, 6, 4)).astype(np.int32)
        w = int_rng.integers(-8, 8, size=(3, 3, 4)).astype(np.int32)
        got = depthwise_conv2d_int(x, w, 2, "same")
        # each channel is an independent 1-in-1-out convolution
        for c in range(4):
            expected = naive_conv(x[..., c:c + 1],
                                  w[:, :, c][..., None, None], 2, "same")
            np.testing.assert_array_equal(got[..., c], expected[..., 0])

    def test_dense(self, int_rng):
        x = int_rng.integers(-100, 100, size=(5, 8)).astype(np.int32)
        w = int_rng.integers(-8, 8, size=(8, 3)).astype(np.int32)
        np.testing.assert_array_equal(
            dense_int(x, w), x.astype(np.int64) @ w.astype(np.int64))


class TestPooling:
    def test_rounded_mean_rounds_half_up(self):
        x = np.array([[1, 2], [2, 2]], dtype=np.int32)  # mean 7/4 = 1.75
        assert rounded_mean_int(x, axis=(0, 1)) == 2
        x = np.array([[1, 1], [2, 2]], dtype=np.int32)  # mean 6/4 = 1.5
        assert rounded_mean_int(x, axis=(0, 1)) == 2
        x = np.array([[1, 1], [1, 2]], dtype=np.int32)  # mean 5/4 = 1.25
        assert rounded_mean_int(x, axis=(0, 1)) == 1

    def test_global_avg_pool(self, int_rng):
        x = int_rng.integers(0, 255, size=(3, 4, 4, 6)).astype(np.int32)
        got = global_avg_pool_int(x)
        assert got.shape == (3, 6)
        expected = np.floor(x.mean(axis=(1, 2)) + 0.5).astype(np.int64)
        np.testing.assert_array_equal(got, expected)

    def test_rounded_mean_over_one_axis(self):
        x = np.array([[1, 2, 2], [0, 0, 1]], dtype=np.int32)
        # rows: 5/3 -> 2, 1/3 -> 0; columns: 1/2 -> 1, 2/2 -> 1, 3/2 -> 2
        np.testing.assert_array_equal(rounded_mean_int(x, axis=(1,)),
                                      [2, 0])
        np.testing.assert_array_equal(rounded_mean_int(x, axis=(0,)),
                                      [1, 1, 2])

    def test_global_avg_pool_of_one_pixel_is_identity(self, int_rng):
        x = int_rng.integers(0, 256, size=(4, 1, 1, 5)).astype(np.int32)
        got = global_avg_pool_int(x)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, x.reshape(4, 5))

    def test_global_avg_pool_sums_past_int32(self):
        # 64 codes of 2**30 sum to 2**36, which an int32 total would wrap
        x = np.full((1, 8, 8, 2), 2 ** 30, dtype=np.int32)
        np.testing.assert_array_equal(global_avg_pool_int(x),
                                      [[2 ** 30, 2 ** 30]])

    def test_pools_reject_float(self):
        with pytest.raises(TypeError):
            global_avg_pool_int(np.zeros((1, 4, 4, 1), dtype=np.float32))
