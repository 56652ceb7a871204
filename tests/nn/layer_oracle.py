"""Test-only reference versions of the training layers' kernels.

These are the original formulations, frozen here as the oracle the
production kernels must match byte for byte: per-tap shift-and-add loops
for the depthwise convolution, ``x.mean``/``x.var`` with per-channel
broadcasts for batch normalization, and ``np.where`` gradient masks for
``ReLU6`` and the activation quantizer's straight-through estimator.
Every result of the training loop (scores, accuracies, the search digest)
depends on these exact bytes, including the memory layout of each output,
because a layout decides the summation order of the next reduction.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.conv import DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, ReLU6
from repro.nn.module import FLOAT
from repro.quant import ActivationQuantizer


def where_mask(mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The reference gradient mask: ``grad`` where ``mask``, +0 elsewhere."""
    return np.where(mask, grad, 0).astype(FLOAT, copy=False)


class OracleDepthwiseConv2D(DepthwiseConv2D):
    """``DepthwiseConv2D`` with the reference per-tap loops."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[3] != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, "
                f"got {x.shape[3]}")
        if self.input_quantizer is not None:
            x = self.input_quantizer.forward(x)
        padded, pad_h, pad_w = F.pad_input(x, self.kernel, self.stride,
                                           self.padding)
        weight = self._effective_weight()
        out_h = F.conv_output_size(x.shape[1], self.kernel, self.stride,
                                   self.padding)
        out_w = F.conv_output_size(x.shape[2], self.kernel, self.stride,
                                   self.padding)
        span_h = (out_h - 1) * self.stride + 1
        span_w = (out_w - 1) * self.stride + 1
        out = np.zeros((x.shape[0], out_h, out_w, self.channels),
                       dtype=FLOAT)
        for i in range(self.kernel):
            for j in range(self.kernel):
                window = padded[:, i:i + span_h:self.stride,
                                j:j + span_w:self.stride, :]
                out += window * weight[i, j]
        self._cache = (padded, (span_h, span_w), pad_h, pad_w, weight)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before forward")
        padded, (span_h, span_w), pad_h, pad_w, weight = self._cache
        grad = grad.astype(FLOAT, copy=False)
        dweight = np.zeros_like(self.weight.data)
        dx_padded = np.zeros(padded.shape, dtype=FLOAT)
        for i in range(self.kernel):
            for j in range(self.kernel):
                window = padded[:, i:i + span_h:self.stride,
                                j:j + span_w:self.stride, :]
                dweight[i, j] = (window * grad).sum(axis=(0, 1, 2))
                dx_padded[:, i:i + span_h:self.stride,
                          j:j + span_w:self.stride, :] += (grad
                                                           * weight[i, j])
        if self.weight_quantizer is not None:
            dweight = self.weight_quantizer.backward(dweight)
        self.weight.accumulate_grad(dweight)
        dx = F.crop_padding(dx_padded, pad_h, pad_w)
        if self.input_quantizer is not None:
            dx = self.input_quantizer.backward(dx)
        self._cache = None
        return dx


class OracleBatchNorm2D(BatchNorm2D):
    """``BatchNorm2D`` with the reference reductions and broadcasts."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, "
                f"got {x.shape[-1]}")
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = int(np.prod([x.shape[a] for a in axes]))
            self.running_mean = (
                self.momentum * self.running_mean
                + (1 - self.momentum) * mean).astype(FLOAT)
            unbiased = var * count / max(count - 1, 1)
            self.running_var = (
                self.momentum * self.running_var
                + (1 - self.momentum) * unbiased).astype(FLOAT)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        out = self.gamma.data * x_hat + self.beta.data
        self._cache = (x_hat, inv_std, axes, x.shape)
        return out.astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before forward")
        x_hat, inv_std, axes, shape = self._cache
        grad = grad.astype(FLOAT, copy=False)
        self.gamma.accumulate_grad((grad * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad.sum(axis=axes))
        if not self.training:
            dx = grad * self.gamma.data * inv_std
            self._cache = None
            return dx.astype(FLOAT, copy=False)
        count = int(np.prod([shape[a] for a in axes]))
        dx_hat = grad * self.gamma.data
        dx = (inv_std / count) * (
            count * dx_hat
            - dx_hat.sum(axis=axes)
            - x_hat * (dx_hat * x_hat).sum(axis=axes))
        self._cache = None
        return dx.astype(FLOAT, copy=False)


class OracleReLU6(ReLU6):
    """``ReLU6`` with the reference ``np.where`` gradient mask."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0) & (x < 6)
        return np.clip(x, 0.0, 6.0).astype(FLOAT, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        dx = where_mask(self._mask, grad)
        self._mask = None
        return dx


class OracleActivationQuantizer(ActivationQuantizer):
    """``ActivationQuantizer`` with the reference ``np.where`` STE mask."""

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        out = where_mask(self._mask, grad)
        self._mask = None
        return out
