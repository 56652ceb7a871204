"""Tests for Pareto-front utilities."""

import pytest

from repro.bo import (best_accuracy_under, dominates, hypervolume,
                      pareto_front, pareto_indices)


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates((0.9, 10.0), (0.8, 20.0))

    def test_better_one_equal_other(self):
        assert dominates((0.9, 10.0), (0.8, 10.0))
        assert dominates((0.9, 10.0), (0.9, 20.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((0.9, 10.0), (0.9, 10.0))

    def test_tradeoff_points_incomparable(self):
        assert not dominates((0.9, 20.0), (0.8, 10.0))
        assert not dominates((0.8, 10.0), (0.9, 20.0))


class TestParetoIndices:
    def test_extracts_non_dominated(self):
        acc = [0.5, 0.9, 0.7, 0.6]
        size = [10, 100, 20, 50]
        front = pareto_indices(acc, size)
        assert set(front) == {0, 1, 2}  # index 3 dominated by index 2

    def test_sorted_by_size(self):
        acc = [0.9, 0.5, 0.7]
        size = [100, 10, 20]
        front = pareto_indices(acc, size)
        assert front == [1, 2, 0]

    def test_all_on_front(self):
        acc = [0.5, 0.7, 0.9]
        size = [10, 20, 30]
        assert len(pareto_indices(acc, size)) == 3

    def test_single_point(self):
        assert pareto_indices([0.5], [10]) == [0]

    def test_empty(self):
        assert pareto_indices([], []) == []

    def test_duplicates_keep_one(self):
        acc = [0.5, 0.5]
        size = [10, 10]
        assert len(pareto_indices(acc, size)) == 1

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pareto_indices([0.5], [10, 20])

    def test_front_points_mutually_nondominated(self, rng):
        acc = rng.uniform(0, 1, 50).tolist()
        size = rng.uniform(1, 100, 50).tolist()
        front = pareto_front(acc, size)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not dominates(a, b)

    def test_every_point_dominated_or_on_front(self, rng):
        acc = rng.uniform(0, 1, 40).tolist()
        size = rng.uniform(1, 100, 40).tolist()
        front = pareto_front(acc, size)
        for point in zip(acc, size):
            on_front = any(abs(point[0] - f[0]) < 1e-12
                           and abs(point[1] - f[1]) < 1e-12 for f in front)
            dominated = any(dominates(f, point) for f in front)
            assert on_front or dominated


class TestHypervolume:
    def test_single_point_with_reference(self):
        volume = hypervolume([(0.5, 10.0)], ref_accuracy=0.0, ref_size=20.0)
        assert volume == pytest.approx(0.5 * 10.0)

    def test_staircase(self):
        front = [(0.4, 10.0), (0.8, 20.0)]
        volume = hypervolume(front, ref_accuracy=0.0, ref_size=30.0)
        assert volume == pytest.approx(0.4 * 10 + 0.8 * 10)

    def test_better_front_bigger_volume(self):
        worse = [(0.4, 10.0), (0.6, 20.0)]
        better = [(0.5, 10.0), (0.8, 20.0)]
        ref = dict(ref_accuracy=0.0, ref_size=30.0)
        assert hypervolume(better, **ref) > hypervolume(worse, **ref)

    def test_empty_front(self):
        assert hypervolume([]) == 0.0

    def test_points_beyond_reference_ignored(self):
        front = [(0.5, 10.0), (0.9, 100.0)]
        volume = hypervolume(front, ref_accuracy=0.0, ref_size=20.0)
        assert volume == pytest.approx(0.5 * 10.0)


class TestBudgetHelpers:
    FRONT_A = [(0.5, 5.0), (0.8, 50.0)]

    def test_best_accuracy_under(self):
        assert best_accuracy_under(self.FRONT_A, 10.0) == 0.5
        assert best_accuracy_under(self.FRONT_A, 100.0) == 0.8

    def test_empty_budget(self):
        assert best_accuracy_under(self.FRONT_A, 1.0) == float("-inf")
