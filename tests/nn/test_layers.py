"""Tests for the dense, batch norm, ReLU6 and global average pool layers."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6,
                      check_module_gradients)


class TestDense:
    def test_linear_map(self, rng):
        dense = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        expected = x @ dense.weight.data + dense.bias.data
        np.testing.assert_allclose(dense.forward(x), expected, rtol=1e-5)

    def test_no_bias(self, rng):
        dense = Dense(3, 2, use_bias=False, rng=rng)
        assert dense.bias is None
        x = np.zeros((2, 3), dtype=np.float32)
        np.testing.assert_array_equal(dense.forward(x),
                                      np.zeros((2, 2), dtype=np.float32))

    def test_gradients(self, rng):
        dense = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        check_module_gradients(dense, x)

    def test_shape_validation(self, rng):
        dense = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 3, 1), dtype=np.float32))

    def test_macs(self, rng):
        assert Dense(10, 7, rng=rng).macs() == 70


class TestBatchNorm2D:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm2D(3)
        bn.set_training(True)
        x = rng.normal(2.0, 3.0, size=(8, 4, 4, 3)).astype(np.float32)
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 1, 2)), 1, atol=1e-2)

    def test_gamma_beta_applied(self, rng):
        bn = BatchNorm2D(2)
        bn.set_training(True)
        bn.gamma.data[:] = [2.0, 3.0]
        bn.beta.data[:] = [1.0, -1.0]
        x = rng.normal(size=(16, 2, 2, 2)).astype(np.float32)
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), [1.0, -1.0],
                                   atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 1, 2)), [2.0, 3.0],
                                   rtol=2e-2)

    def test_running_stats_converge(self, rng):
        bn = BatchNorm2D(1, momentum=0.5)
        bn.set_training(True)
        for _ in range(40):
            bn.forward(rng.normal(5.0, 2.0, size=(64, 2, 2, 1))
                       .astype(np.float32))
        assert bn.running_mean[0] == pytest.approx(5.0, abs=0.5)
        assert bn.running_var[0] == pytest.approx(4.0, rel=0.4)

    def test_inference_uses_running_stats(self, rng):
        bn = BatchNorm2D(1)
        bn.running_mean[:] = 10.0
        bn.running_var[:] = 4.0
        bn.set_training(False)
        x = np.full((1, 1, 1, 1), 12.0, dtype=np.float32)
        out = bn.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_gradients_training(self, rng):
        bn = BatchNorm2D(3)
        x = rng.normal(size=(6, 3, 3, 3)).astype(np.float32)
        check_module_gradients(bn, x)

    def test_gradients_inference(self, rng):
        bn = BatchNorm2D(2)
        bn.running_mean[:] = rng.normal(size=2)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=2)
        bn.set_training(False)
        x = rng.normal(size=(4, 3, 3, 2)).astype(np.float32)
        out = bn.forward(x)
        dx = bn.backward(np.ones_like(out))
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(dx, np.broadcast_to(scale, dx.shape),
                                   rtol=1e-5)

    def test_fold_scale_shift(self):
        bn = BatchNorm2D(2)
        bn.running_mean[:] = [1.0, -1.0]
        bn.running_var[:] = [4.0, 9.0]
        bn.gamma.data[:] = [2.0, 3.0]
        bn.beta.data[:] = [0.5, 0.0]
        scale, shift = bn.fold_scale_shift()
        x = np.array([[3.0, 2.0]], dtype=np.float32)
        bn.set_training(False)
        expected = bn.forward(x.reshape(1, 1, 1, 2)).reshape(1, 2)
        np.testing.assert_allclose(scale * x + shift, expected, rtol=1e-3)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm2D(3, momentum=1.0)


class TestActivations:
    def test_relu6_clips_both_sides(self):
        act = ReLU6()
        x = np.array([[-1.0, 3.0, 7.0]], dtype=np.float32)
        np.testing.assert_array_equal(act.forward(x), [[0, 3, 6]])
        dx = act.backward(np.ones((1, 3), dtype=np.float32))
        np.testing.assert_array_equal(dx, [[0, 1, 0]])

    def test_relu6_gradcheck(self, rng):
        # keep away from the kinks at 0 and 6
        x = rng.uniform(0.5, 5.5, size=(3, 4)).astype(np.float32)
        check_module_gradients(ReLU6(), x)

    def test_relu6_no_gradient_at_the_kinks(self):
        act = ReLU6()
        x = np.array([[0.0, -0.0, 6.0]], dtype=np.float32)
        np.testing.assert_array_equal(act.forward(x), [[0, 0, 6]])
        dx = act.backward(np.ones((1, 3), dtype=np.float32))
        np.testing.assert_array_equal(dx, [[0, 0, 0]])

    def test_relu6_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError, match="before forward"):
            ReLU6().backward(np.ones((1, 3), dtype=np.float32))

    def test_relu6_mask_spent_by_backward(self):
        act = ReLU6()
        grad = np.ones((1, 3), dtype=np.float32)
        act.forward(np.ones((1, 3), dtype=np.float32))
        act.backward(grad)
        # a second backward needs a second forward
        with pytest.raises(RuntimeError, match="before forward"):
            act.backward(grad)


class TestPooling:
    def test_gap_averages(self, rng):
        gap = GlobalAvgPool2D()
        x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        np.testing.assert_allclose(gap.forward(x), x.mean(axis=(1, 2)),
                                   rtol=1e-5)

    def test_gap_gradients(self, rng):
        gap = GlobalAvgPool2D()
        x = rng.normal(size=(2, 3, 3, 2)).astype(np.float32)
        check_module_gradients(gap, x)

    def test_gap_rejects_2d(self):
        with pytest.raises(ValueError):
            GlobalAvgPool2D().forward(np.zeros((2, 3), dtype=np.float32))

    def test_gap_backward_spreads_gradient_evenly(self, rng):
        gap = GlobalAvgPool2D()
        gap.forward(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        grad = rng.normal(size=(2, 5)).astype(np.float32)
        dx = gap.backward(grad)
        assert dx.dtype == np.float32
        expected = np.broadcast_to(grad[:, None, None, :] / 12, dx.shape)
        np.testing.assert_allclose(dx, expected, rtol=1e-6)

    def test_gap_of_one_pixel_is_a_reshape(self, rng):
        gap = GlobalAvgPool2D()
        x = rng.normal(size=(3, 1, 1, 4)).astype(np.float32)
        np.testing.assert_array_equal(gap.forward(x), x.reshape(3, 4))
        grad = rng.normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_array_equal(gap.backward(grad),
                                      grad.reshape(3, 1, 1, 4))

    def test_gap_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError, match="before forward"):
            GlobalAvgPool2D().backward(np.ones((1, 2), dtype=np.float32))
