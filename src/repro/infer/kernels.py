"""Integer-only compute kernels of the reference interpreter.

:meth:`~repro.infer.engine.Program.run_stage` runs these as the
bit-identity oracle of the arena executor, which contracts through
``np.einsum`` instead.  Every function here accepts and returns integer
arrays — float inputs are rejected.  Contractions call
:func:`numpy.matmul` explicitly (never the ``@`` operator) and the
depthwise convolution shifts and adds tap by tap: another route to the
same int32 sums (exact mod 2**32 in any order), so the oracle shares no
contraction code with the engine it checks.

Inputs to the conv/dense kernels are *zero-point-shifted* codes
(``q - zp``) in int32; "same" padding therefore pads with literal zeros,
which corresponds exactly to the float reference padding with ``0.0``.
Accumulation is INT32, matching the deployment contract of TFLite/CMSIS-NN
integer kernels (the accumulator head-room proof lives in
``tests/quant/test_integer_equivalence.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn import functional as F

INT_KINDS = ("i", "u")


def _require_int(x: np.ndarray, who: str) -> None:
    if x.dtype.kind not in INT_KINDS:
        raise TypeError(f"{who}: expected integer array, got {x.dtype}")


def _as_int32(x: np.ndarray) -> np.ndarray:
    """int32 view of ``x`` — a copy only when the dtype actually differs."""
    return x if x.dtype == np.int32 else x.astype(np.int32)


def conv2d_int(x: np.ndarray, weight: np.ndarray, stride: int,
               padding: str) -> np.ndarray:
    """Standard convolution: int32 NHWC codes x int32 (k,k,cin,cout)."""
    _require_int(x, "conv2d_int")
    _require_int(weight, "conv2d_int")
    kernel = weight.shape[0]
    cout = weight.shape[3]
    if kernel == 1:
        strided = x[:, ::stride, ::stride, :]
        n, ho, wo, c = strided.shape
        out = np.matmul(_as_int32(np.ascontiguousarray(strided)
                                  .reshape(-1, c)),
                        _as_int32(weight.reshape(c, cout)))
        return out.reshape(n, ho, wo, cout)
    padded, _, _ = F.pad_input(x, kernel, stride, padding)
    patches = F.extract_patches(padded, kernel, stride)
    n, ho, wo, c, kh, kw = patches.shape
    # flatten both operands in (c, kh, kw) order so rows line up
    lhs = _as_int32(np.ascontiguousarray(patches).reshape(
        n * ho * wo, c * kh * kw))
    rhs = _as_int32(weight.transpose(2, 0, 1, 3).reshape(
        c * kh * kw, cout))
    return np.matmul(lhs, rhs).reshape(n, ho, wo, cout)


def depthwise_conv2d_int(x: np.ndarray, weight: np.ndarray, stride: int,
                         padding: str) -> np.ndarray:
    """Depthwise convolution via shift-and-add: int32 x int32 (k,k,c)."""
    _require_int(x, "depthwise_conv2d_int")
    _require_int(weight, "depthwise_conv2d_int")
    kernel = weight.shape[0]
    padded, _, _ = F.pad_input(x, kernel, stride, padding)
    out_h = F.conv_output_size(x.shape[1], kernel, stride, padding)
    out_w = F.conv_output_size(x.shape[2], kernel, stride, padding)
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    out = np.zeros((x.shape[0], out_h, out_w, x.shape[3]), dtype=np.int32)
    w32 = _as_int32(weight)
    for i in range(kernel):
        for j in range(kernel):
            window = padded[:, i:i + span_h:stride, j:j + span_w:stride, :]
            out += _as_int32(window) * w32[i, j]
    return out


def dense_int(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Fully-connected: int32 (N, cin) x int32 (cin, cout)."""
    _require_int(x, "dense_int")
    _require_int(weight, "dense_int")
    return np.matmul(_as_int32(x), _as_int32(weight))


def rounded_mean_int(x: np.ndarray, axis: Tuple[int, ...]) -> np.ndarray:
    """Round-half-up integer mean over ``axis`` (codes are non-negative)."""
    _require_int(x, "rounded_mean_int")
    count = 1
    for ax in axis:
        count *= x.shape[ax]
    total = x.astype(np.int64).sum(axis=axis)
    return ((total + count // 2) // count).astype(np.int32)


def global_avg_pool_int(x: np.ndarray) -> np.ndarray:
    """(N, H, W, C) codes -> (N, C) rounded integer mean."""
    return rounded_mean_int(x, axis=(1, 2))

