"""Stateless tensor helpers shared by the convolution layers.

Convolutions use the patch-extraction ("im2col") formulation: sliding
windows are materialized with :func:`numpy.lib.stride_tricks.sliding_window_view`
and contracted against the kernel with :func:`numpy.einsum`.  The data layout
is NHWC throughout the framework.

Training results are bit-exact across kernel rewrites, so the per-channel
helpers here reproduce numpy's own bytes: :func:`channel_sum` adds the rows
in the order ``ndarray.sum`` does, :func:`channel_rows` tiles a
per-channel vector instead of broadcasting it, which changes the inner
loop's length but not one elementwise result, and :func:`masked` selects
a gradient with ``np.where``'s bytes in one bitwise pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .module import FLOAT


def same_padding(in_size: int, kernel: int, stride: int) -> Tuple[int, int]:
    """TensorFlow-style SAME padding amounts ``(before, after)`` for one axis.

    Output size is ``ceil(in_size / stride)``; when the total padding is odd
    the extra pixel goes after (bottom/right), matching TF/Keras.
    """
    if in_size <= 0 or kernel <= 0 or stride <= 0:
        raise ValueError("in_size, kernel and stride must be positive")
    out_size = -(-in_size // stride)
    total = max((out_size - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def conv_output_size(in_size: int, kernel: int, stride: int,
                     padding: str) -> int:
    """Spatial output size of a convolution along one axis."""
    if padding == "same":
        return -(-in_size // stride)
    if padding == "valid":
        if in_size < kernel:
            raise ValueError(
                f"valid conv needs input >= kernel ({in_size} < {kernel})")
        return (in_size - kernel) // stride + 1
    raise ValueError(f"unknown padding mode {padding!r}")


def pad_input(x: np.ndarray, kernel: int, stride: int,
              padding: str) -> Tuple[np.ndarray, Tuple[int, int], Tuple[int, int]]:
    """Zero-pad an NHWC batch for a square-kernel convolution.

    Returns the padded tensor and the (before, after) padding used on the
    height and width axes so the backward pass can crop its result.  The
    tensor has the bytes, dtype and strides of ``np.pad(x, ((0, 0), pad_h,
    pad_w, (0, 0)))``: a +0 buffer in ``np.pad``'s memory order (Fortran
    only for input that is F- but not C-contiguous) with ``x`` copied in,
    without ``np.pad``'s per-axis bookkeeping, which cost more than the
    fill and the copy at the shapes training pads.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    if padding == "valid":
        return x, (0, 0), (0, 0)
    if padding != "same":
        raise ValueError(f"unknown padding mode {padding!r}")
    n, h, w, c = x.shape
    pad_h = same_padding(h, kernel, stride)
    pad_w = same_padding(w, kernel, stride)
    if pad_h == (0, 0) and pad_w == (0, 0):
        return x, pad_h, pad_w
    padded = np.zeros((n, h + sum(pad_h), w + sum(pad_w), c), dtype=x.dtype,
                      order="F" if x.flags.fnc else "C")
    padded[:, pad_h[0]:pad_h[0] + h, pad_w[0]:pad_w[0] + w] = x
    return padded, pad_h, pad_w


def extract_patches(padded: np.ndarray, kernel: int,
                    stride: int) -> np.ndarray:
    """Sliding ``kernel x kernel`` patches of an NHWC tensor.

    Returns a view (no copy) of shape ``(N, Ho, Wo, C, kh, kw)`` where
    ``Ho``/``Wo`` already account for the stride.
    """
    windows = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return windows[:, ::stride, ::stride]


def scatter_patches(dpatches: np.ndarray, padded_shape: tuple,
                    kernel: int, stride: int) -> np.ndarray:
    """Inverse of :func:`extract_patches` for the backward pass.

    Scatter-adds patch gradients of shape ``(N, Ho, Wo, C, kh, kw)`` back
    into a zero tensor of ``padded_shape`` (the padded input shape).
    """
    dx = np.zeros(padded_shape, dtype=FLOAT)
    n_out_h, n_out_w = dpatches.shape[1], dpatches.shape[2]
    span_h = (n_out_h - 1) * stride + 1
    span_w = (n_out_w - 1) * stride + 1
    for i in range(kernel):
        for j in range(kernel):
            dx[:, i:i + span_h:stride, j:j + span_w:stride, :] += \
                dpatches[:, :, :, :, i, j]
    return dx


def crop_padding(dx_padded: np.ndarray, pad_h: Tuple[int, int],
                 pad_w: Tuple[int, int]) -> np.ndarray:
    """Remove the padding applied by :func:`pad_input` from a gradient."""
    h_end = dx_padded.shape[1] - pad_h[1]
    w_end = dx_padded.shape[2] - pad_w[1]
    return dx_padded[:, pad_h[0]:h_end, pad_w[0]:w_end, :]


def _row_ordered(a: np.ndarray) -> bool:
    """True when ``a`` has unit-stride channels (C >= 2) after leading axes
    whose strides fall in row-major order."""
    if a.ndim < 2 or a.shape[-1] < 2 or a.strides[-1] != a.itemsize:
        return False
    strides = [st for size, st in zip(a.shape[:-1], a.strides[:-1])
               if size > 1]
    return (all(outer > inner for outer, inner in zip(strides, strides[1:]))
            and (not strides or strides[-1] > a.itemsize))


def channel_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel total over every leading axis of ``a`` (times ``b``).

    Returns exactly the bytes of ``(a * b).sum(axis=leading)``, or of
    ``a.sum(axis=leading)`` when ``b`` is None.  On row-ordered operands
    numpy's sum runs its inner loop over the C channels of one row and adds
    the rows into each total in order; ``np.einsum`` with explicit
    subscripts adds them in that same order, with the product fused into
    the pass instead of written out, and runs 2-3x faster at small C.
    Every other layout goes to ``ndarray.sum`` itself: at C = 1 the sum
    runs along memory and goes pairwise, and a channel-major operand (the
    kxk conv's output) sets a different memory order.  Tier-1 property
    tests hold this equality, since it rests on numpy's loop order.
    C-contiguous operands are summed as their ``(M, C)`` reshape, the loop
    numpy's iterator makes of them anyway; crops and strided windows keep
    the N-D subscripts.
    """
    operands = (a,) if b is None else (a, b)
    if all(op.shape == a.shape and op.dtype == a.dtype for op in operands):
        if (a.ndim >= 2 and a.shape[-1] >= 2
                and all(op.flags.c_contiguous for op in operands)):
            rows = [op.reshape(-1, a.shape[-1]) for op in operands]
            return np.einsum(",".join(["ij"] * len(rows)) + "->j", *rows)
        if all(_row_ordered(op) for op in operands):
            letters = "abcdefghijklmnopqrstuvwxyz"[:a.ndim]
            return np.einsum(",".join([letters] * len(operands)) + "->"
                             + letters[-1], *operands)
    return (a if b is None else a * b).sum(axis=tuple(range(a.ndim - 1)))


def channel_rows(*arrays: np.ndarray) -> tuple:
    """``(*views, tile)`` for per-channel elementwise work on NHWC arrays.

    When every array is C-contiguous, each comes back as an ``(N, H*W*C)``
    view and ``tile(v)`` repeats a per-channel vector ``v`` along one such
    row, so numpy's inner loop spans a whole row instead of C elements.
    Otherwise the arrays come back as they are and ``tile`` returns ``v``
    itself: a broadcast keeps its operands' memory order in its result,
    and that order sets the summation order of every later reduction.
    ``tile`` fills a ``(reps, C)`` buffer: the bytes of ``np.tile(v,
    reps)`` without its per-call overhead, which dominates at these sizes.
    """
    if all(x.flags.c_contiguous for x in arrays):
        n, c = arrays[0].shape[0], arrays[0].shape[-1]
        views = tuple(x.reshape(n, -1) for x in arrays)
        reps = views[0].shape[1] // c

        def tile(v: np.ndarray) -> np.ndarray:
            out = np.empty((reps, c), dtype=v.dtype)
            out[...] = v
            return out.reshape(-1)

        return views + (tile,)
    return arrays + (lambda v: v,)


def masked(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` where boolean ``mask`` holds and +0 elsewhere, as float32.

    The exact bytes and memory layout of ``np.where(mask, x, 0).astype(
    float32, copy=False)``, NaN payloads and signed zeros included, in one
    bitwise pass: ``x``'s float32 bits ANDed with the mask widened to
    0 / -1.  ``np.where``'s select runs an order of magnitude slower on the
    activation and STE gradients this masks.  Both allocate their result
    in the operands' common memory order, so the layouts agree as well.
    """
    bits = np.asarray(x, dtype=FLOAT).view(np.int32)
    return np.bitwise_and(bits, np.negative(mask.view(np.int8))).view(FLOAT)
