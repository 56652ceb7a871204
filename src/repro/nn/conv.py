"""Convolution layers (standard and depthwise) with quantization hooks.

Each layer owns an optional ``weight_quantizer`` and ``input_quantizer``
(attached by :mod:`repro.quant.apply`).  When present, the forward pass runs
on fake-quantized weights/inputs and the backward pass routes gradients
through the quantizer's straight-through estimator.  Layers with no
quantizers behave as plain float32 convolutions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..obs import profile as prof
from . import functional as F
from .initializers import he_normal, zeros
from .module import FLOAT, Module, Parameter

#: memoized np.einsum contraction paths per (subscripts, operand shapes).
#: The search evaluates thousands of forward/backward steps over a handful
#: of distinct layer shapes, so re-optimizing the contraction order on
#: every call is pure hot-path overhead.
_EINSUM_PATHS: Dict[Tuple, list] = {}


def _cached_einsum(subscripts: str, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    key = (subscripts, a.shape, b.shape)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, a, b, optimize="optimal")[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(subscripts, a, b, optimize=path)


def _sum_taps(src: np.ndarray, weight: np.ndarray, out: np.ndarray,
              stride: int, flip: bool) -> None:
    """``out[:, h, w] = sum_ij src[:, h*s + i, w*s + j] * weight[i, j]``.

    With ``flip`` the taps run back from the corner instead, reading
    ``src[:, h + k-1 - i, w + k-1 - j]`` (at stride 1).  One ``np.einsum``
    does the whole sum.  Its first operand is a ``(k, k, N, rows, span*C)``
    view of C-contiguous ``src`` read as ``(N, H, W*C)`` rows, covering
    every column from the first window's to the last's (the stride keeps
    every s-th); its second is the weight tiled along one such row.  The
    tap strides fall from ``i`` to ``j`` and both exceed the row's unit
    stride, so numpy runs its inner loop along the row and adds each
    pixel's products into a +0 output one tap at a time, i-major, each a
    rounded multiply then a rounded add: the bytes of the original
    shift-and-add (DESIGN.md, *Training kernels*).  At C = 1 the ``j``
    stride would be the unit stride and numpy would reorder the taps, so
    a zero channel widens ``src`` and ``weight``.
    """
    n, rows, cols, c = out.shape
    k = weight.shape[0]
    if c == 1:
        src, weight = (np.concatenate([a, np.zeros_like(a)], axis=-1)
                       for a in (src, weight))
    span = (cols - 1) * stride + 1
    item, wide = src.itemsize, src.shape[3]
    row = src.shape[2] * wide * item
    sign = -1 if flip else 1
    view = as_strided(src[:, k - 1:, k - 1:] if flip else src,
                      (k, k, n, rows, span * wide),
                      (sign * row, sign * wide * item, src.strides[0],
                       stride * row, item), writeable=False)
    taps = np.tile(weight, (1, 1, span))
    if stride == 1 and wide == c:
        # out's W and C axes merge into the einsum's rows: write in place
        np.einsum("ijnhx,ijx->nhx", view, taps,
                  out=out.reshape(n, rows, cols * c))
    else:
        full = np.einsum("ijnhx,ijx->nhx", view, taps)
        out[...] = full.reshape(n, rows, span, wide)[:, :, ::stride, :c]


class Conv2D(Module):
    """2-D convolution over NHWC input.

    Weights have shape ``(kernel, kernel, in_channels, out_channels)``.
    ``use_bias`` defaults to False because in MobileNetV2 every convolution
    is followed by batch normalization.
    """

    #: axis of the weight tensor indexing output channels (for per-channel
    #: quantization).
    weight_channel_axis = 3

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: str = "same",
                 use_bias: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "conv") -> None:
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel <= 0 or stride <= 0:
            raise ValueError("kernel and stride must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = kernel * kernel * in_channels
        self.weight = Parameter(
            he_normal((kernel, kernel, in_channels, out_channels), fan_in, rng),
            name=f"{name}.weight")
        self.bias: Optional[Parameter] = None
        if use_bias:
            self.bias = Parameter(zeros((out_channels,)), name=f"{name}.bias")
        self.weight_quantizer = None
        self.input_quantizer = None
        self._cache = None

    def macs(self, in_h: int, in_w: int) -> int:
        """Multiply-accumulate count for one input of spatial size HxW."""
        out_h = F.conv_output_size(in_h, self.kernel, self.stride, self.padding)
        out_w = F.conv_output_size(in_w, self.kernel, self.stride, self.padding)
        return (out_h * out_w * self.kernel * self.kernel
                * self.in_channels * self.out_channels)

    def _effective_weight(self) -> np.ndarray:
        if self.weight_quantizer is not None:
            return self.weight_quantizer.forward(self.weight.data)
        return self.weight.data

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.conv2d.fwd"):
            if x.shape[3] != self.in_channels:
                raise ValueError(
                    f"{self.name}: expected {self.in_channels} input "
                    f"channels, got {x.shape[3]}")
            if self.input_quantizer is not None:
                x = self.input_quantizer.forward(x)
            weight = self._effective_weight()
            if self.kernel == 1:
                # 1x1 convolution: a per-pixel channel mix -> one BLAS
                # matmul.  This is the fast path for the expand/project/head
                # convs that dominate MobileNetV2 compute.
                with prof.kernel("nn.conv2d.matmul"):
                    strided = x[:, ::self.stride, ::self.stride, :]
                    n, ho, wo, c = strided.shape
                    out = strided.reshape(-1, c) @ weight.reshape(c, -1)
                    out = out.reshape(n, ho, wo, self.out_channels)
                # stride==1 backward never scatters into a zero tensor, so
                # there is no need to keep the input shape alive in the cache
                shape = None if self.stride == 1 else x.shape
                self._cache = ("1x1", strided, weight, shape)
            else:
                with prof.kernel("nn.conv2d.im2col"):
                    padded, pad_h, pad_w = F.pad_input(
                        x, self.kernel, self.stride, self.padding)
                    patches = F.extract_patches(padded, self.kernel,
                                                self.stride)
                with prof.kernel("nn.conv2d.matmul"):
                    out = _cached_einsum("nhwcij,ijcf->nhwf", patches, weight)
                self._cache = ("kxk", patches, padded.shape, pad_h, pad_w,
                               weight)
            out = out.astype(FLOAT, copy=False)
            if self.bias is not None:
                out = out + self.bias.data
            return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.conv2d.bwd"):
            if self._cache is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            grad = grad.astype(FLOAT, copy=False)
            if self.bias is not None:
                self.bias.accumulate_grad(grad.sum(axis=(0, 1, 2)))
            if self._cache[0] == "1x1":
                dx = self._backward_1x1(grad)
            else:
                dx = self._backward_kxk(grad)
            if self.input_quantizer is not None:
                dx = self.input_quantizer.backward(dx)
            self._cache = None
            return dx

    def _backward_1x1(self, grad: np.ndarray) -> np.ndarray:
        _, strided, weight, x_shape = self._cache
        n, ho, wo, c = strided.shape
        grad_flat = grad.reshape(-1, self.out_channels)
        dweight = (strided.reshape(-1, c).T @ grad_flat).reshape(
            1, 1, c, self.out_channels)
        if self.weight_quantizer is not None:
            dweight = self.weight_quantizer.backward(dweight)
        self.weight.accumulate_grad(dweight)
        dx_strided = (grad_flat @ weight.reshape(c, -1).T).reshape(
            n, ho, wo, c)
        if self.stride == 1:
            return dx_strided.astype(FLOAT, copy=False)
        dx = np.zeros(x_shape, dtype=FLOAT)
        dx[:, ::self.stride, ::self.stride, :] = dx_strided
        return dx

    def _backward_kxk(self, grad: np.ndarray) -> np.ndarray:
        _, patches, padded_shape, pad_h, pad_w, weight = self._cache
        dweight = _cached_einsum("nhwcij,nhwf->ijcf", patches, grad)
        if self.weight_quantizer is not None:
            dweight = self.weight_quantizer.backward(dweight)
        self.weight.accumulate_grad(dweight)
        dpatches = _cached_einsum("nhwf,ijcf->nhwcij", grad, weight)
        dx_padded = F.scatter_patches(dpatches, padded_shape, self.kernel,
                                      self.stride)
        return F.crop_padding(dx_padded, pad_h, pad_w)

    def __repr__(self) -> str:
        return (f"Conv2D({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel}, s={self.stride}, pad={self.padding})")


class DepthwiseConv2D(Module):
    """Depthwise 2-D convolution (depth multiplier 1) over NHWC input.

    Weights have shape ``(kernel, kernel, channels)``; each input channel is
    convolved with its own filter.
    """

    weight_channel_axis = 2

    def __init__(self, channels: int, kernel: int, stride: int = 1,
                 padding: str = "same",
                 rng: Optional[np.random.Generator] = None,
                 name: str = "dwconv") -> None:
        super().__init__(name)
        if channels <= 0 or kernel <= 0 or stride <= 0:
            raise ValueError("channels, kernel and stride must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = kernel * kernel
        self.weight = Parameter(
            he_normal((kernel, kernel, channels), fan_in, rng),
            name=f"{name}.weight")
        self.weight_quantizer = None
        self.input_quantizer = None
        self._cache = None

    # alias so size accounting can treat both conv types uniformly
    @property
    def in_channels(self) -> int:
        return self.channels

    @property
    def out_channels(self) -> int:
        return self.channels

    def macs(self, in_h: int, in_w: int) -> int:
        out_h = F.conv_output_size(in_h, self.kernel, self.stride, self.padding)
        out_w = F.conv_output_size(in_w, self.kernel, self.stride, self.padding)
        return out_h * out_w * self.kernel * self.kernel * self.channels

    def _effective_weight(self) -> np.ndarray:
        if self.weight_quantizer is not None:
            return self.weight_quantizer.forward(self.weight.data)
        return self.weight.data

    def forward(self, x: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.dwconv.fwd"):
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
            out = np.empty((x.shape[0], out_h, out_w, self.channels),
                           dtype=FLOAT)
            _sum_taps(np.ascontiguousarray(padded, dtype=FLOAT), weight, out,
                      self.stride, flip=False)
            self._cache = (padded, (out_h, out_w), pad_h, pad_w, weight)
            return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        with prof.kernel("nn.dwconv.bwd"):
            if self._cache is None:
                raise RuntimeError(
                    f"{self.name}: backward called before forward")
            padded, (out_h, out_w), pad_h, pad_w, weight = self._cache
            grad = grad.astype(FLOAT, copy=False)
            dweight = self._weight_grad(padded, grad, out_h, out_w)
            if self.weight_quantizer is not None:
                dweight = self.weight_quantizer.backward(dweight)
            self.weight.accumulate_grad(dweight)
            # the scatter's gather form: dx[p, q] sums frame[p-i, q-j] *
            # weight[i, j], the frame holding grad dilated by the stride in
            # a zero border; its zeros add +-0 to a +0 accumulator, which
            # never turns -0.  dx stays a crop of a padded buffer, whose
            # strides set later layers' summation order.
            k, s = self.kernel, self.stride
            dx = F.crop_padding(np.empty(padded.shape, dtype=FLOAT), pad_h,
                                pad_w)
            n, h, w, c = dx.shape
            frame = np.zeros((n, h + k - 1, w + k - 1, c), dtype=FLOAT)
            frame[:, k - 1 - pad_h[0]::s, k - 1 - pad_w[0]::s][
                :, :out_h, :out_w] = grad
            _sum_taps(frame, weight, dx, 1, flip=True)
            if self.input_quantizer is not None:
                dx = self.input_quantizer.backward(dx)
            self._cache = None
            return dx

    def _weight_grad(self, padded: np.ndarray, grad: np.ndarray,
                     out_h: int, out_w: int) -> np.ndarray:
        """``dweight[i, j] = (window_ij * grad).sum(axis=(0, 1, 2))``.

        With C-contiguous operands and C >= 2 those sums add each channel's
        rows in order, so one :func:`F.channel_sum` per kernel row ``i``
        yields all ``k`` taps of the row at once, byte for byte: the padded
        input read as overlapping ``(N, Ho, Wo, k*C)`` runs, tap ``j``'s
        channels at ``j*C``, against ``grad`` tiled ``k`` times.  Any other
        layout reduces tap by tap.
        """
        k, s, c = self.kernel, self.stride, self.channels
        span_h = (out_h - 1) * s + 1
        dweight = np.zeros_like(self.weight.data)
        if c >= 2 and padded.flags.c_contiguous and grad.flags.c_contiguous:
            n, h, w = padded.shape[:3]
            runs = sliding_window_view(padded.reshape(n, h, w * c), k * c,
                                       axis=2)[:, :, ::s * c][:, :, :out_w]
            tiled = np.tile(grad, k)
            for i in range(k):
                dweight[i] = F.channel_sum(runs[:, i:i + span_h:s],
                                           tiled).reshape(k, c)
            return dweight
        span_w = (out_w - 1) * s + 1
        for i in range(k):
            for j in range(k):
                dweight[i, j] = F.channel_sum(
                    padded[:, i:i + span_h:s, j:j + span_w:s], grad)
        return dweight

    def __repr__(self) -> str:
        return (f"DepthwiseConv2D(c={self.channels}, k={self.kernel}, "
                f"s={self.stride}, pad={self.padding})")
