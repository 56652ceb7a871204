"""Compile-time tensor-arena planning for the integer engine.

The executor must not allocate on the hot path, so every inter-stage
activation tensor gets a fixed offset in one preallocated int32 arena.
The offsets come from the same liveness analysis the deployment report
uses for its peak-activation-memory figure:

- **Values.**  Value ``i`` is the output of stage ``i``; value ``-1`` is
  the program's input codes.  A value is live from the stage that writes
  it through the last stage that reads it — normally the next stage, but
  a residual-skip source (``save_input`` → ``residual_from``) stays
  pinned until its consuming project stage.
- **Intervals → offsets.**  Values are placed by first-fit-decreasing:
  largest first, each at the lowest arena offset that no temporally
  overlapping value occupies.  This is the classic offset-calculation
  scheme of embedded tensor-arena planners; it is not guaranteed optimal
  but is within the liveness peak's small constant factor in practice
  (the plan records both so the report can show the packing efficiency).
- **The final dense output** is float logits, written to the caller's
  buffer, so it owns no arena slot.

Offsets are in per-image int32 elements; the executor scales them by the
batch size, giving every slot a contiguous region and every view a
zero-copy reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Liveness of one activation value, in stage indices (inclusive)."""

    value: int                 # -1 = program input, i = output of stage i
    start: int                 # first stage during which it occupies memory
    end: int                   # last stage during which it occupies memory
    elems: int                 # per-image element count
    shape: Tuple[int, ...]     # per-image shape


@dataclass(frozen=True)
class Slot:
    """One planned arena placement."""

    value: int
    offset: int                # per-image int32 elements from arena start
    elems: int
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class ArenaPlan:
    """The packed arena layout for one compiled stage program."""

    slots: Dict[int, Slot]     # value id -> placement
    total_elems: int           # packed arena size, per-image int32 elements
    naive_elems: int           # sum of all value sizes (fresh allocation)
    peak_elems: int            # liveness lower bound on any packing

    def arena_bytes(self, batch: int) -> int:
        return self.total_elems * batch * 4

    def describe(self) -> str:
        return (f"arena plan: {self.total_elems * 4} B/image packed "
                f"(liveness peak {self.peak_elems * 4} B, "
                f"fresh allocation {self.naive_elems * 4} B), "
                f"{len(self.slots)} tensors")


def _elems(shape: Sequence[int]) -> int:
    return int(np.prod(shape))


def liveness_intervals(stages) -> List[Interval]:
    """Live ranges of every activation value in a stage program.

    Matches the engine's execution semantics exactly: ``saved`` residual
    tensors are the *input* of the ``save_input`` stage, so a stage ``j``
    with ``residual_from = r`` extends the lifetime of value ``r - 1``.
    """
    n = len(stages)
    # last read of each value: the consuming stage, then residual extensions
    last_use = {-1: 0}
    for i in range(n):
        last_use[i] = min(i + 1, n - 1)
    for j, stage in enumerate(stages):
        if stage.residual_from is not None:
            source_value = stage.residual_from - 1
            last_use[source_value] = max(last_use[source_value], j)
    intervals = [Interval(value=-1, start=0, end=last_use[-1],
                          elems=_elems(stages[0].in_shape),
                          shape=tuple(stages[0].in_shape))]
    for i, stage in enumerate(stages):
        intervals.append(Interval(value=i, start=i, end=last_use[i],
                                  elems=_elems(stage.out_shape),
                                  shape=tuple(stage.out_shape)))
    return intervals


def peak_liveness(stages) -> Tuple[int, str]:
    """``(peak elements, stage name)`` of simultaneously live activations.

    The deployment report multiplies this by one byte per element (INT8
    deployment model); the arena planner uses it as the packing lower
    bound (int32 host carriers).
    """
    intervals = liveness_intervals(stages)
    peak, peak_stage = 0, ""
    for index, stage in enumerate(stages):
        live = sum(iv.elems for iv in intervals
                   if iv.start <= index <= iv.end)
        if live > peak:
            peak, peak_stage = live, stage.name
    return peak, peak_stage


def plan_arena(stages) -> ArenaPlan:
    """Assign every activation value a fixed offset in one int32 arena."""
    # the final stage's output is float logits (dense) or is returned
    # directly to the caller — either way it never lives in the arena
    last_value = len(stages) - 1
    placeable = [iv for iv in liveness_intervals(stages)
                 if iv.value != last_value]

    placed: List[Tuple[Interval, int]] = []    # (interval, offset)
    for iv in sorted(placeable, key=lambda iv: (-iv.elems, iv.start)):
        overlapping = sorted(
            (offset, other.elems) for other, offset in placed
            if other.start <= iv.end and iv.start <= other.end)
        cursor = 0
        for offset, elems in overlapping:
            if offset - cursor >= iv.elems:
                break
            cursor = max(cursor, offset + elems)
        placed.append((iv, cursor))

    slots = {iv.value: Slot(value=iv.value, offset=offset, elems=iv.elems,
                            shape=iv.shape)
             for iv, offset in placed}

    total = max((offset + iv.elems for iv, offset in placed), default=0)
    naive = sum(iv.elems for iv in placeable)
    peak, _ = peak_liveness(stages)
    return ArenaPlan(slots=slots, total_elems=total, naive_elems=naive,
                     peak_elems=peak)
