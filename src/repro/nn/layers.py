"""Non-convolutional layers: dense, batch norm, activations, pooling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs import profile as prof
from . import functional as F
from .initializers import glorot_uniform, ones, zeros
from .module import FLOAT, Module, Parameter


class Dense(Module):
    """Fully-connected layer over ``(N, D)`` input, with quantizer hooks."""

    weight_channel_axis = 1

    def __init__(self, in_features: int, out_features: int,
                 use_bias: bool = True,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "dense") -> None:
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), in_features,
                           out_features, rng),
            name=f"{name}.weight")
        self.bias: Optional[Parameter] = None
        if use_bias:
            self.bias = Parameter(zeros((out_features,)), name=f"{name}.bias")
        self.weight_quantizer = None
        self.input_quantizer = None
        self._cache = None

    # aliases for uniform size/MACs accounting with conv layers
    @property
    def in_channels(self) -> int:
        return self.in_features

    @property
    def out_channels(self) -> int:
        return self.out_features

    def macs(self) -> int:
        return self.in_features * self.out_features

    def _effective_weight(self) -> np.ndarray:
        if self.weight_quantizer is not None:
            return self.weight_quantizer.forward(self.weight.data)
        return self.weight.data

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.dense.fwd"):
            if x.ndim != 2 or x.shape[1] != self.in_features:
                raise ValueError(
                    f"{self.name}: expected (N, {self.in_features}), "
                    f"got {x.shape}")
            if self.input_quantizer is not None:
                x = self.input_quantizer.forward(x)
            weight = self._effective_weight()
            out = x @ weight
            if self.bias is not None:
                out = out + self.bias.data
            self._cache = (x, weight)
            return out.astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.dense.bwd"):
            if self._cache is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            x, weight = self._cache
            grad = grad.astype(FLOAT, copy=False)
            dweight = x.T @ grad
            if self.weight_quantizer is not None:
                dweight = self.weight_quantizer.backward(dweight)
            self.weight.accumulate_grad(dweight)
            if self.bias is not None:
                self.bias.accumulate_grad(grad.sum(axis=0))
            dx = grad @ weight.T
            if self.input_quantizer is not None:
                dx = self.input_quantizer.backward(dx)
            self._cache = None
            return dx

    def __repr__(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"


class BatchNorm2D(Module):
    """Batch normalization over the channel axis of NHWC input.

    Uses batch statistics while ``training`` and exponential running
    statistics at inference, like Keras' ``BatchNormalization``.
    """

    def __init__(self, channels: int, momentum: float = 0.9,
                 eps: float = 1e-3, name: str = "bn") -> None:
        super().__init__(name)
        if channels <= 0:
            raise ValueError("channels must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(ones((channels,)), name=f"{name}.gamma")
        self.beta = Parameter(zeros((channels,)), name=f"{name}.beta")
        self.running_mean = np.zeros((channels,), dtype=FLOAT)
        self.running_var = np.ones((channels,), dtype=FLOAT)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.bn.fwd"):
            if x.shape[-1] != self.channels:
                raise ValueError(
                    f"{self.name}: expected {self.channels} channels, "
                    f"got {x.shape[-1]}")
            axes = tuple(range(x.ndim - 1))
            # A C-contiguous input is normalised as (N, H*W*C) rows; any
            # other layout (the kxk conv's channel-major output) keeps
            # numpy's own reductions and broadcasts, whose output layout
            # sets the summation order of every later layer.
            rows, tile = F.channel_rows(x)
            if self.training:
                count = int(np.prod([x.shape[a] for a in axes]))
                if x.flags.c_contiguous:
                    # one channel sum serves the mean, one centred tensor
                    # serves both the variance and x_hat
                    mean = F.channel_sum(x) / count
                    centred = rows - tile(mean)
                    centred_nhwc = centred.reshape(x.shape)
                    var = F.channel_sum(centred_nhwc, centred_nhwc) / count
                else:
                    mean = x.mean(axis=axes)
                    var = x.var(axis=axes)
                    centred = x - mean
                self.running_mean = (
                    self.momentum * self.running_mean
                    + (1 - self.momentum) * mean).astype(FLOAT)
                # unbiased variance for the running estimate, as Keras does
                unbiased = var * count / max(count - 1, 1)
                self.running_var = (
                    self.momentum * self.running_var
                    + (1 - self.momentum) * unbiased).astype(FLOAT)
            else:
                var = self.running_var
                centred = rows - tile(self.running_mean)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = centred * tile(inv_std)
            out = tile(self.gamma.data) * x_hat + tile(self.beta.data)
            self._cache = (x_hat.reshape(x.shape), inv_std, axes, x.shape)
            return out.reshape(x.shape).astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.bn.bwd"):
            if self._cache is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            x_hat, inv_std, axes, shape = self._cache
            grad = grad.astype(FLOAT, copy=False)
            self.gamma.accumulate_grad(F.channel_sum(grad, x_hat))
            self.beta.accumulate_grad(F.channel_sum(grad))
            g, x_rows, tile = F.channel_rows(grad, x_hat)
            if not self.training:
                # inference: mean/var are constants
                dx = g * tile(self.gamma.data) * tile(inv_std)
                self._cache = None
                return dx.reshape(shape).astype(FLOAT, copy=False)
            count = int(np.prod([shape[a] for a in axes]))
            dx_hat = g * tile(self.gamma.data)
            dx_hat_nhwc = dx_hat.reshape(shape)
            dx = tile(inv_std / count) * (
                count * dx_hat
                - tile(F.channel_sum(dx_hat_nhwc))
                - x_rows * tile(F.channel_sum(dx_hat_nhwc, x_hat)))
            self._cache = None
            return dx.reshape(shape).astype(FLOAT, copy=False)

    def fold_scale_shift(self) -> tuple:
        """Equivalent per-channel ``(scale, shift)`` for BN folding.

        At inference BN computes ``y = scale * x + shift`` with constants
        derived from running statistics; deployment folds these into the
        preceding convolution, which is why BN contributes no disk size in
        :mod:`repro.quant.size`.
        """
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        shift = self.beta.data - scale * self.running_mean
        return scale, shift

    def __repr__(self) -> str:
        return f"BatchNorm2D(c={self.channels})"


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self, name: str = "relu") -> None:
        super().__init__(name)
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return F.masked(self._mask, x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        dx = F.masked(self._mask, grad)
        self._mask = None
        return dx


class ReLU6(Module):
    """ReLU clipped at 6, the MobileNetV2 activation."""

    def __init__(self, name: str = "relu6") -> None:
        super().__init__(name)
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.relu6.fwd"):
            self._mask = (x > 0) & (x < 6)
            return np.clip(x, 0.0, 6.0).astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.relu6.bwd"):
            if self._mask is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            dx = F.masked(self._mask, grad)
            self._mask = None
            return dx


class GlobalAvgPool2D(Module):
    """Global average pooling: ``(N, H, W, C) -> (N, C)``."""

    def __init__(self, name: str = "gap") -> None:
        super().__init__(name)
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.pool.fwd"):
            if x.ndim != 4:
                raise ValueError(f"expected NHWC input, got shape {x.shape}")
            self._in_shape = x.shape
            return x.mean(axis=(1, 2)).astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.pool.bwd"):
            if self._in_shape is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            n, h, w, c = self._in_shape
            dx = np.broadcast_to(grad[:, None, None, :] / (h * w),
                                 self._in_shape).astype(FLOAT)
            self._in_shape = None
            return dx


class Flatten(Module):
    """Flatten all non-batch axes: ``(N, ...) -> (N, D)``."""

    def __init__(self, name: str = "flatten") -> None:
        super().__init__(name)
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        dx = grad.reshape(self._in_shape)
        self._in_shape = None
        return dx
