"""Exact sample statistics and failure accounting for the benchmark.

Every percentile here is computed from the raw samples, never from
histogram buckets: a bucket edge is not a measurement.  A percentile is
only *supported* by a sample when at least ten samples lie beyond it, so
a p99 needs 1000 samples and a p90 needs 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: samples that must lie beyond a percentile for the sample to support it
MIN_BEYOND = 10

#: the percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    The same definition as ``numpy.percentile``'s default, written out so
    the rule is visible: rank ``q/100 * (n - 1)`` in the sorted sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail_rank(n: int, max_q: float = TAIL_LADDER[0]) -> float:
    """The highest percentile of :data:`TAIL_LADDER` that ``n`` supports.

    ``max_q`` caps the rank, so a workload whose sample size varies with
    host speed keeps one rank run to run.  Falls back to the median when
    even p50 is unsupported; the printed table always names the rank, so
    a low-sample tail never poses as p99.
    """
    for q in TAIL_LADDER:
        if q <= max_q and supports(n, q):
            return q
    return 50.0


@dataclass
class Summary:
    """Median and supported tail of one latency-like sample."""

    n: int
    p50: float
    tail: float
    tail_q: float

    @classmethod
    def of(cls, samples: Sequence[float],
           max_q: float = TAIL_LADDER[0]) -> "Summary":
        q = tail_rank(len(samples), max_q)
        return cls(n=len(samples), p50=median(samples),
                   tail=percentile(samples, q), tail_q=q)

    def scaled(self, factor: float) -> "Summary":
        return Summary(self.n, self.p50 * factor, self.tail * factor,
                       self.tail_q)


@dataclass
class OpCounter:
    """Operations attempted and failed, with the reason for each failure.

    A failed check counts as one failed operation; the workload is correct
    only when nothing failed and at least one operation was attempted.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation; failed when ``condition`` is false."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def interpolate_rate(rungs: List[Dict[str, float]],
                     limit_ms: float) -> Optional[float]:
    """Highest rate meeting ``limit_ms``, interpolated between rungs.

    ``rungs`` are ``{"rate", "tail_ms", "ok"}`` in ascending rate order,
    where ``ok`` already folds in shedding and backlog growth.  Between
    the last passing rung and the first failing one the limit crossing is
    placed by linear interpolation of the tail latency, which keeps the
    figure continuous instead of snapping to a rung.  ``None`` when even
    the lowest rung fails.
    """
    last_ok: Optional[Dict[str, float]] = None
    for rung in rungs:
        if rung["ok"]:
            last_ok = rung
            continue
        if last_ok is None:
            return None
        if rung["tail_ms"] <= limit_ms:
            return last_ok["rate"]   # failed on shedding or backlog
        span = rung["tail_ms"] - last_ok["tail_ms"]
        frac = 0.0 if span <= 0 else (limit_ms - last_ok["tail_ms"]) / span
        frac = min(max(frac, 0.0), 1.0)
        return last_ok["rate"] + frac * (rung["rate"] - last_ok["rate"])
    return None if last_ok is None else last_ok["rate"]
