"""Tests for the MobileNetV2 composite blocks."""

import numpy as np
import pytest

from repro.nn import ConvBNReLU, InvertedBottleneck, check_module_gradients


class TestConvBNReLU:
    def test_output_nonnegative_and_clipped(self, rng):
        block = ConvBNReLU(3, 4, kernel=3, rng=rng)
        block.set_training(True)
        out = block.forward(rng.normal(size=(4, 6, 6, 3)).astype(np.float32))
        assert out.min() >= 0
        assert out.max() <= 6

    def test_gradients(self, rng):
        block = ConvBNReLU(2, 3, kernel=3, rng=rng)
        x = rng.normal(size=(4, 4, 4, 2)).astype(np.float32)
        check_module_gradients(block, x)


class TestInvertedBottleneck:
    def test_residual_when_shapes_match(self, rng):
        block = InvertedBottleneck(4, 4, kernel=3, expansion=2, stride=1,
                                   rng=rng)
        assert block.use_residual

    def test_no_residual_on_stride2(self, rng):
        block = InvertedBottleneck(4, 4, kernel=3, expansion=2, stride=2,
                                   rng=rng)
        assert not block.use_residual

    def test_no_residual_on_channel_change(self, rng):
        block = InvertedBottleneck(4, 8, kernel=3, expansion=2, stride=1,
                                   rng=rng)
        assert not block.use_residual

    def test_expansion1_has_no_expand_conv(self, rng):
        block = InvertedBottleneck(4, 4, kernel=3, expansion=1, rng=rng)
        assert block.expand is None

    def test_expansion_widens_hidden(self, rng):
        block = InvertedBottleneck(4, 6, kernel=3, expansion=5, rng=rng)
        assert block.hidden_channels == 20
        assert block.expand is not None

    def test_output_shape_stride2(self, rng):
        block = InvertedBottleneck(3, 8, kernel=3, expansion=3, stride=2,
                                   rng=rng)
        block.set_training(True)
        out = block.forward(rng.normal(size=(2, 9, 9, 3)).astype(np.float32))
        assert out.shape == (2, 5, 5, 8)

    def test_residual_identity_path(self, rng):
        """Zeroing the projection conv makes a residual block an identity."""
        block = InvertedBottleneck(3, 3, kernel=3, expansion=2, stride=1,
                                   rng=rng)
        block.project.weight.data[:] = 0
        block.set_training(False)
        x = rng.normal(size=(1, 4, 4, 3)).astype(np.float32)
        out = block.forward(x)
        # projection output is BN(0) = beta = 0 -> out == x
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_gradients_with_residual(self, rng):
        block = InvertedBottleneck(2, 2, kernel=3, expansion=2, stride=1,
                                   rng=rng)
        x = rng.normal(size=(2, 4, 4, 2)).astype(np.float32)
        check_module_gradients(block, x)

    def test_gradients_without_residual(self, rng):
        block = InvertedBottleneck(2, 3, kernel=3, expansion=2, stride=2,
                                   rng=rng)
        x = rng.normal(size=(2, 5, 5, 2)).astype(np.float32)
        check_module_gradients(block, x)

    def test_invalid_expansion_raises(self, rng):
        with pytest.raises(ValueError):
            InvertedBottleneck(4, 4, kernel=3, expansion=0, rng=rng)

    def test_parameters_counted_once(self, rng):
        block = InvertedBottleneck(4, 4, kernel=3, expansion=2, rng=rng)
        params = block.parameters()
        assert len(params) == len({id(p) for p in params})
