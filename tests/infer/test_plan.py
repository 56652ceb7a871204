"""Arena-planner tests: liveness intervals and packing."""

import numpy as np
import pytest

from repro.infer.compile import Stage
from repro.infer.plan import (liveness_intervals, peak_liveness, plan_arena)


def _chain(shapes, kinds=None, residual=None):
    """A linear stage list with the given per-image shapes; ``residual``
    is an optional ``(source, consumer)`` pair of stage indices."""
    source, consumer = residual or (None, None)
    stages = []
    for i in range(len(shapes) - 1):
        kind = kinds[i] if kinds else "conv"
        stages.append(Stage(f"s{i}", kind, shapes[i], shapes[i + 1],
                            save_input=i == source,
                            residual_from=source if i == consumer
                            else None))
    return stages


class TestLivenessIntervals:
    def test_linear_chain_lifetimes(self):
        stages = _chain([(4, 4, 3), (4, 4, 8), (2, 2, 8), (10,)])
        by_value = {iv.value: iv for iv in liveness_intervals(stages)}
        # input codes live only during stage 0
        assert (by_value[-1].start, by_value[-1].end) == (0, 0)
        # each intermediate dies at its consumer
        assert (by_value[0].start, by_value[0].end) == (0, 1)
        assert (by_value[1].start, by_value[1].end) == (1, 2)
        # the final value's interval is clamped to the last stage
        assert by_value[2].end == 2

    def test_residual_pins_source_value(self):
        # stage 1 saves its input (value 0), stage 3 adds it
        stages = _chain([(4, 4, 8)] * 5, residual=(1, 3))
        by_value = {iv.value: iv for iv in liveness_intervals(stages)}
        # value 0 stays live from its producer through the project stage
        assert (by_value[0].start, by_value[0].end) == (0, 3)
        assert by_value[1].end == 2          # un-pinned neighbour unchanged

    def test_interval_elems_match_shapes(self):
        stages = _chain([(4, 4, 3), (2, 2, 16), (16,), (10,)],
                        kinds=["conv", "gap", "dense"])
        for iv in liveness_intervals(stages):
            assert iv.elems == int(np.prod(iv.shape))


class TestPeakLiveness:
    def test_matches_bruteforce_sum(self):
        stages = _chain([(8, 8, 3), (8, 8, 16), (4, 4, 24), (2, 2, 24),
                         (24,), (10,)],
                        kinds=["conv", "conv", "conv", "gap", "dense"])
        intervals = liveness_intervals(stages)
        expected = max(
            sum(iv.elems for iv in intervals if iv.start <= t <= iv.end)
            for t in range(len(stages)))
        peak, stage_name = peak_liveness(stages)
        assert peak == expected
        assert stage_name in [s.name for s in stages]

    def test_residual_raises_peak(self):
        shapes = [(4, 4, 8)] * 5
        plain = _chain(shapes)
        pinned = _chain(shapes, residual=(1, 3))
        assert peak_liveness(pinned)[0] > peak_liveness(plain)[0]


class TestPlanArena:
    def _assert_no_live_overlap(self, stages, plan):
        """Temporally overlapping values must occupy disjoint ranges."""
        intervals = {iv.value: iv for iv in liveness_intervals(stages)}
        slots = list(plan.slots.values())
        for a in slots:
            for b in slots:
                if a.value >= b.value:
                    continue
                iva, ivb = intervals[a.value], intervals[b.value]
                if iva.start <= ivb.end and ivb.start <= iva.end:
                    disjoint = (a.offset + a.elems <= b.offset
                                or b.offset + b.elems <= a.offset)
                    assert disjoint, (a, b)

    def test_no_overlap_linear(self):
        stages = _chain([(8, 8, 3), (8, 8, 16), (4, 4, 32), (2, 2, 32),
                         (32,), (10,)],
                        kinds=["conv", "conv", "conv", "gap", "dense"])
        plan = plan_arena(stages)
        self._assert_no_live_overlap(stages, plan)
        assert plan.total_elems <= plan.naive_elems
        assert plan.total_elems >= plan.peak_elems

    def test_no_overlap_with_residual(self):
        stages = _chain([(4, 4, 8)] * 6, residual=(1, 4))
        plan = plan_arena(stages)
        self._assert_no_live_overlap(stages, plan)
        # the pinned tensor coexists with every in-between value
        source = plan.slots[0]
        for value in (1, 2, 3):
            other = plan.slots[value]
            assert (source.offset + source.elems <= other.offset
                    or other.offset + other.elems <= source.offset)

    def test_final_value_owns_no_slot(self):
        stages = _chain([(4, 4, 3), (3,), (10,)],
                        kinds=["gap", "dense"])
        plan = plan_arena(stages)
        assert len(stages) - 1 not in plan.slots

    def test_arena_bytes_scale_with_batch(self):
        stages = _chain([(4, 4, 3), (4, 4, 8), (10,)])
        plan = plan_arena(stages)
        assert plan.arena_bytes(4) == 4 * plan.arena_bytes(1)
        assert "arena plan" in plan.describe()

    def test_program_plan_consistent_with_report(self, program8):
        """The report's liveness figure is the planner's lower bound."""
        plan = plan_arena(program8.stages)
        peak_elems, _ = peak_liveness(program8.stages)
        assert plan.peak_elems == peak_elems
        assert plan.total_elems >= peak_elems
        self._assert_no_live_overlap(program8.stages, plan)
