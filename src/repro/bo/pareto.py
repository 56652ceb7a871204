"""Pareto-front utilities over (accuracy, model size) points.

The NAS result is a Pareto front — the set of candidates not dominated in
the (maximize accuracy, minimize size) order — rather than a single model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def dominates(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """True if point ``a`` Pareto-dominates ``b``.

    Points are ``(accuracy, size)``: higher accuracy and lower size are
    better; domination requires at-least-as-good in both and strictly
    better in one.
    """
    acc_a, size_a = a
    acc_b, size_b = b
    at_least = acc_a >= acc_b and size_a <= size_b
    strictly = acc_a > acc_b or size_a < size_b
    return at_least and strictly


def pareto_indices(accuracies: Sequence[float],
                   sizes: Sequence[float]) -> List[int]:
    """Indices of the non-dominated points, sorted by ascending size.

    O(n log n): sweep by size and keep points whose accuracy exceeds every
    smaller point's accuracy.  Among exact duplicates, one representative
    is kept.
    """
    accuracies = np.asarray(accuracies, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    if accuracies.shape != sizes.shape:
        raise ValueError("accuracies and sizes must have the same length")
    if accuracies.size == 0:
        return []
    # sort by size ascending; on ties, accuracy descending so the best of a
    # size column is seen first
    order = np.lexsort((-accuracies, sizes))
    front: List[int] = []
    best_accuracy = -np.inf
    for idx in order:
        if accuracies[idx] > best_accuracy:
            front.append(int(idx))
            best_accuracy = accuracies[idx]
    return front


def pareto_front(accuracies: Sequence[float],
                 sizes: Sequence[float]) -> List[Tuple[float, float]]:
    """The Pareto-optimal ``(accuracy, size)`` points, ascending in size."""
    return [(float(np.asarray(accuracies)[i]), float(np.asarray(sizes)[i]))
            for i in pareto_indices(accuracies, sizes)]


def hypervolume(front: Sequence[Tuple[float, float]],
                ref_accuracy: float = 0.0,
                ref_size: Optional[float] = None) -> float:
    """2-D hypervolume (dominated area) of a front w.r.t. a reference point.

    The reference point is ``(ref_accuracy, ref_size)`` with ``ref_size``
    defaulting to the largest size on the front.  Larger hypervolume =
    better front; used to compare fronts across search modes (Figs. 5/8).
    """
    if not front:
        return 0.0
    points = sorted(front, key=lambda p: p[1])  # ascending size
    if ref_size is None:
        ref_size = max(p[1] for p in points)
    volume = 0.0
    # integrate from small to large size; each point covers the size band
    # from its own size to the next point's size with its accuracy height
    for i, (acc, size) in enumerate(points):
        if size > ref_size:
            break
        next_size = points[i + 1][1] if i + 1 < len(points) else ref_size
        band = min(next_size, ref_size) - size
        height = acc - ref_accuracy
        if band > 0 and height > 0:
            volume += band * height
    return volume


def best_accuracy_under(front: Sequence[Tuple[float, float]],
                        max_size: float) -> float:
    """Best accuracy among front points with size <= ``max_size``.

    Returns ``-inf`` when no point fits the budget.
    """
    eligible = [acc for acc, size in front if size <= max_size]
    return max(eligible) if eligible else float("-inf")
