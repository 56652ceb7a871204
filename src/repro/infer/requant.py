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

:func:`requantize` is the reference form, two rounding steps.  The
engine runs the same arithmetic folded: a :class:`RequantPlan` turns the
high-mul's rounding, the post-shift's rounding and the zero points into
one constant, so a stage's epilogue (:func:`requantize_epilogue`) is a
multiply, an add and a shift, then the clamp — bit-identical, because
nested floor divisions by powers of two are one floor division.
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

#: the post-shift from which every int32 input requantizes to 0: the
#: high-mul leaves ``|v| < 2**31``, and ``(v + 2**(n-1)) >> n`` is 0 for
#: every such ``v`` once ``n >= 32``
ZERO_SHIFT = 32


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
    """``floor(v / 2**n + 1/2)`` — rounding right shift by ``n >= 0``.

    A shift past 63 is applied as 63: its rounding constant ``1 << 63``
    would wrap to ``-2**63`` in int64, and at 63 every ``|v| < 2**62``
    already rounds to 0, as at any larger shift.
    """
    v = np.asarray(v, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("shift amount must be non-negative")
    n = np.minimum(n, 63)
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
    """A requantization folded into one multiply, add and shift.

    ``requantize(x - in_zp, q, shift) + out_zp`` rounds twice (the
    high-mul, then the post-shift) and adds a zero point.  Since
    ``floor(floor(x / a) / b) == floor(x / (a*b))`` and
    ``floor(y / a) + h == floor((y + h*a) / a)`` for positive integers
    ``a``, ``b``, all of it is one floor division by a power of two::

        (x*q + k) >> s,   s = (31 - pre) + post,
        k = 2**(30 - pre) + floor(2**(post - 1)) * 2**(31 - pre)
            - in_zp*q + out_zp * 2**s

    with ``pre``/``post`` the positive/negative parts of ``shift``
    (``pre`` capped at :data:`MAX_PRESHIFT`).  The sum stays inside int64
    for every int32 ``x - in_zp`` under two rules, both exact:

    - from a post-shift of :data:`ZERO_SHIFT` every int32 input rounds
      to 0, so such a channel gets ``q = s = 0`` and its constant is
      just the zero point;
    - a zero point folds only where ``(2|out_zp| + 1) * 2**(s - 1) <=
      2**61`` on every channel (for an 8-bit zero point, at least every
      post-shift up to 22); otherwise it stays out of ``k`` and ``zp``
      holds it, to be added after the shift.

    ``q``, ``k`` and ``s`` are tiled ``reps`` times, so a per-channel
    plan lines up with ``reps`` pixels of channels-last output, or are
    numpy scalars where every channel shares the value.
    """

    # int64 arrays, or numpy int64 scalars where every channel agrees
    q: np.ndarray          # mantissas (0 on a zero-output channel)
    k: np.ndarray          # folded rounding constants and zero points
    s: np.ndarray          # total right shifts
    zp: int = 0            # output zero point left out of k

    @classmethod
    def build(cls, mult, shift, out_zp: int = 0, in_zp: int = 0,
              reps: int = 1) -> "RequantPlan":
        q = np.asarray(mult, dtype=np.int64)
        shift = np.asarray(shift, dtype=np.int64)
        pre = np.minimum(np.maximum(shift, 0), MAX_PRESHIFT)
        post = np.maximum(-shift, 0)
        zero = post >= ZERO_SHIFT
        post = np.where(zero, 0, post)
        s = 31 - pre + post
        half = np.where(post > 0,
                        np.left_shift(np.int64(1), np.maximum(post, 1) - 1),
                        np.int64(0))
        k = (np.left_shift(np.int64(1), 30 - pre)
             + np.left_shift(half, 31 - pre) - np.int64(in_zp) * q)
        q, k, s = (np.where(zero, np.int64(0), v) for v in (q, k, s))
        zp = int(out_zp)
        if zp and np.all(s + (2 * abs(zp) + 1).bit_length() <= 62):
            k = k + np.int64(zp) * np.left_shift(np.int64(1), s)
            zp = 0
        return cls(q=tiled(q, reps), k=tiled(k, reps), s=tiled(s, reps),
                   zp=zp)


def tiled(values: np.ndarray, reps: int):
    """``values``' one value as a numpy scalar when every entry holds it,
    else ``values`` tiled ``reps`` times (a new, read-only array).

    A scalar broadcasts far faster than a row, and a per-channel row
    tiled over an image's pixels lines up with its channels-last output.
    """
    first = values.flat[0]
    if np.all(values == first):
        return first
    rows = np.tile(values, reps)
    rows.flags.writeable = False
    return rows


def requantize_into(x: IntArray, plan: RequantPlan,
                    work: IntArray) -> IntArray:
    """``requantize(x - in_zp, q, shift) + out_zp`` into an int64 ``work``.

    Three in-place passes (four where the zero point did not fold),
    bit-identical to the reference.  ``work`` must have ``x``'s
    (broadcast) shape; ``x`` may be ``work`` itself.
    """
    np.multiply(x, plan.q, out=work)
    np.add(work, plan.k, out=work)
    np.right_shift(work, plan.s, out=work)
    if plan.zp:
        np.add(work, plan.zp, out=work)
    return work


def requantize_epilogue(acc: IntArray, plan: RequantPlan, lo: int, hi: int,
                        work: IntArray, residual=None) -> None:
    """A stage's output codes, written over its int32 accumulators.

    ``acc`` becomes ``clip(requantize(acc) [+ requantize(saved -
    res_zp)] + out_zp, lo, hi)``, the reference's chain, through the
    int64 workspace ``work`` (``acc``'s shape).  ``residual`` is
    ``(saved, res_plan, res_work)`` for a stage that adds a saved input.
    """
    requantize_into(acc, plan, work)
    if residual is not None:
        saved, res_plan, res_work = residual
        np.add(work, requantize_into(saved, res_plan, res_work), out=work)
    np.maximum(work, lo, out=work)
    np.minimum(work, hi, out=acc)
