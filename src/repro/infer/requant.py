"""Fixed-point requantization arithmetic (gemmlowp / TFLite convention).

An integer-only engine cannot multiply accumulators by the real-valued
rescale factor ``M = s_in * s_w / s_out``; instead ``M`` is decomposed at
compile time into a 32-bit integer mantissa and a power-of-two exponent::

    M  ≈  q * 2**(shift - 31),   q in [2**30, 2**31),  shift <= 0 usually

and applied at run time with two integer primitives (the gemmlowp names):

- ``rounding_doubling_high_mul(x, q, pre)`` — ``round(x * 2**pre * q /
  2**31)`` computed in 64-bit integer arithmetic (the "high half" of the
  doubled product, after the pre-shift of a multiplier ``M >= 1``);
- ``rounding_right_shift(v, n)`` — ``round(v / 2**n)`` (round half away
  from zero towards +inf, i.e. ``floor(v/2**n + 1/2)``).

Both are exact integer computations; the only approximation relative to
``round(x * M)`` is the 31-bit truncation of the mantissa (relative error
``< 2**-31``) and the rounding convention at exact ties, which is what
bounds the engine's divergence from the float fake-quant reference to at
most one least-significant bit per requantization step.

The pre-shift ``p`` of a multiplier ``M >= 1`` does not shift the
accumulator left (which wraps once ``|acc << p|`` leaves the gemmlowp
contract ``< 2**31``): the high-mul divides the exact int64 product by
``2**(31 - p)`` instead, as ``(acc*q*2**p + 2**30) >> 31 ==
(acc*q + 2**(30 - p)) >> (31 - p)`` for every integer.  The result is
the same wherever the contract holds and exact where it does not.  That
case is real: an activation that calibrates to all zeros gets a
``1e-8``-wide grid, and the multiplier into it is ``~2**27``; the output
must saturate the clamp, as the fake-quant reference does, not wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

IntArray = np.ndarray

#: the largest pre-shift applied exactly.  From ``M >= 2**29`` any nonzero
#: accumulator lands at least ``2**29`` codes off zero, beyond every clamp
#: and pooled mean, so a larger exponent is applied as this one.
MAX_PRESHIFT = 30


def quantize_multiplier(m: float) -> Tuple[int, int]:
    """Decompose a positive real multiplier as ``(q, shift)``.

    ``m ≈ q * 2**(shift - 31)`` with ``q`` a 31-bit mantissa in
    ``[2**30, 2**31)`` — i.e. ``shift`` is the binary exponent of ``m``
    (``shift <= 0`` for the typical ``m < 1``).  Degenerate non-positive
    multipliers map to ``(0, 0)`` — the requantized output is exactly zero.
    """
    if not math.isfinite(m):
        raise ValueError(f"multiplier must be finite, got {m}")
    if m <= 0.0:
        return 0, 0
    mant, exp = math.frexp(m)          # m = mant * 2**exp, mant in [0.5, 1)
    q = int(round(mant * (1 << 31)))
    if q == (1 << 31):                 # mant rounded up to 1.0
        q //= 2
        exp += 1
    return q, exp


def quantize_multipliers(ms: np.ndarray) -> Tuple[IntArray, IntArray]:
    """Vector form of :func:`quantize_multiplier` for per-channel scales.

    Fully vectorized (``np.frexp`` + half-even rounding, the exact
    arithmetic of the scalar form) — element-wise identical to calling
    :func:`quantize_multiplier` in a loop, which the test suite checks
    over a wide multiplier sweep.
    """
    ms = np.asarray(ms, dtype=np.float64)
    if not np.all(np.isfinite(ms)):
        bad = ms[~np.isfinite(ms)][0]
        raise ValueError(f"multiplier must be finite, got {bad}")
    mant, exp = np.frexp(ms)           # m = mant * 2**exp, mant in [0.5, 1)
    # np.round is round-half-even, exactly like the scalar form's round()
    qs = np.round(mant * float(1 << 31)).astype(np.int64)
    shifts = exp.astype(np.int64)
    carried = qs == (1 << 31)          # mant rounded up to 1.0
    qs[carried] >>= 1
    shifts[carried] += 1
    degenerate = ms <= 0.0
    qs[degenerate] = 0
    shifts[degenerate] = 0
    return qs, shifts


def rounding_doubling_high_mul(x: IntArray, q: Union[int, IntArray],
                               pre: Union[int, IntArray] = 0) -> IntArray:
    """``round(x * 2**pre * q / 2**31)`` in pure int64 arithmetic.

    ``|x| < 2**31`` and ``q < 2**31`` keep the product inside int64; the
    pre-shift ``0 <= pre <= 30`` narrows the divisor rather than widening
    the product (module docstring), so it cannot overflow.
    """
    pre = np.asarray(pre, dtype=np.int64)
    product = x.astype(np.int64) * np.asarray(q, dtype=np.int64)
    return np.right_shift(product + np.left_shift(np.int64(1), 30 - pre),
                          31 - pre)


def rounding_right_shift(v: IntArray,
                         n: Union[int, IntArray]) -> IntArray:
    """``floor(v / 2**n + 1/2)`` — rounding right shift by ``n >= 0``."""
    v = np.asarray(v, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("shift amount must be non-negative")
    # 1 << (n - 1) is invalid at n == 0; mask it out instead of branching
    half = np.where(n > 0, np.left_shift(np.int64(1),
                                         np.maximum(n, 1) - 1), 0)
    return np.right_shift(v + half, n)


def requantize(acc: IntArray, q: Union[int, IntArray],
               shift: Union[int, IntArray]) -> IntArray:
    """Apply a compiled multiplier: ``round(acc * q * 2**(shift-31))``.

    Follows the TFLite kernel convention: a positive exponent pre-shifts
    the accumulator *left* before the high-mul (so no low bits are lost
    for multipliers >= 1, e.g. the exactly-representable ``M = 1``), and a
    negative exponent becomes a rounding right shift afterwards.  The
    pre-shift is folded into the high-mul's divisor (module docstring),
    so it cannot overflow; it is capped at :data:`MAX_PRESHIFT`.

    ``q``/``shift`` may be scalars or arrays broadcastable against ``acc``
    (per-output-channel requantization broadcasts over the last axis).
    Returns int64; the caller adds the output zero point and clamps.
    """
    shift = np.asarray(shift, dtype=np.int64)
    v = rounding_doubling_high_mul(
        acc, q, np.minimum(np.maximum(shift, 0), MAX_PRESHIFT))
    return rounding_right_shift(v, np.maximum(-shift, 0))


@dataclass(frozen=True)
class RequantPlan:
    """Compile-time decomposition of a requantization multiplier set.

    Splits every per-channel ``(q, shift)`` pair into the exact operands
    the fused kernel needs at run time — the high-mul's rounding constant
    and shift (with the positive pre-shift folded in), the negative
    post-shift, and the post-shift's rounding constant — so the hot path
    performs no ``maximum``/``where`` work and no int64 temporaries
    beyond its single reused workspace.
    """

    q: np.ndarray          # int64 mantissas
    round1: np.ndarray     # int64 2**(30 - pre) — the high-mul's rounding
    shift1: np.ndarray     # int64 31 - pre — the high-mul's right shift
    sneg: np.ndarray       # int64 max(-shift, 0) — post-shift (right)
    half: np.ndarray       # int64 rounding constant of the post-shift

    @classmethod
    def build(cls, mult, shift) -> "RequantPlan":
        q = np.asarray(mult, dtype=np.int64)
        shift = np.asarray(shift, dtype=np.int64)
        pre = np.minimum(np.maximum(shift, 0), MAX_PRESHIFT)
        sneg = np.maximum(-shift, 0)
        half = np.where(sneg > 0,
                        np.left_shift(np.int64(1), np.maximum(sneg, 1) - 1),
                        np.int64(0))
        # every channel shares pre = 0 unless some M >= 1; a scalar
        # broadcasts far faster than a short per-channel row
        return cls(q=q, round1=_shared(np.left_shift(np.int64(1), 30 - pre)),
                   shift1=_shared(31 - pre), sneg=sneg, half=half)


def _shared(values: np.ndarray):
    """``values``' one value as a numpy scalar when every entry holds it."""
    first = values.flat[0]
    return first if np.all(values == first) else values


def requantize_into(acc: IntArray, plan: RequantPlan,
                    work: IntArray) -> IntArray:
    """Fused, allocation-free :func:`requantize` into an int64 workspace.

    Bit-identical to ``requantize(acc, q, shift)``, with every step in
    place on ``work``.  ``work`` must have ``acc``'s (broadcast) shape;
    the caller adds the output zero point and clamps.
    """
    np.multiply(acc, plan.q, out=work)
    np.add(work, plan.round1, out=work)
    np.right_shift(work, plan.shift1, out=work)
    np.add(work, plan.half, out=work)
    np.right_shift(work, plan.sneg, out=work)
    return work
