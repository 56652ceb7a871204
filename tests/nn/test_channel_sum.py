"""``channel_sum`` returns numpy's own bytes on every layout training uses.

The training kernels reduce through :func:`repro.nn.functional.channel_sum`,
which runs ``np.einsum`` on row-ordered operands because it adds the rows
into each channel's total in the order ``ndarray.sum`` does.  That order is
a numpy implementation detail: if an upgrade changes it, these properties
fail here instead of every search result drifting silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import functional as F

#: how an operand is laid out in memory, as the training kernels see it
LAYOUTS = ("contiguous", "cropped", "stride2", "channel_major", "runs",
           "rows2d")


def _values(rng, shape, zeros):
    """Mixed-magnitude float32 values, a share of them signed zeros."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, size=shape)
    x[rng.random(shape) < zeros] = 0.0
    x[rng.random(shape) < zeros / 2] = -0.0
    return x.astype(np.float32)


def _operand(rng, layout, n, h, w, c, zeros):
    """An ``(n, h, w, c)`` operand (``(n*h*w, c)`` for ``rows2d``)."""
    if layout == "contiguous":
        return _values(rng, (n, h, w, c), zeros)
    if layout == "cropped":
        # the dwconv dx: a crop of a zero-padded buffer, gaps between rows
        return _values(rng, (n, h + 3, w + 2, c), zeros)[:, 1:h + 1, 2:]
    if layout == "stride2":
        # a stride-2 tap window over a padded input
        return _values(rng, (n, 2 * h + 1, 2 * w + 1, c), zeros)[
            :, 1::2, 1::2][:, :h, :w]
    if layout == "channel_major":
        # the kxk conv's einsum output: memory order (C, N, H, W)
        base = _values(rng, (c, n, h, w), zeros)
        return base.transpose(1, 2, 3, 0)
    if layout == "runs":
        # the dwconv weight grad's overlapping (N, Ho, Wo, k*C) runs
        k = 3
        rows = _values(rng, (n, h, (w + k - 1) * c), zeros)
        return sliding_window_view(rows, c, axis=2)[:, :, ::c][:, :, :w]
    return _values(rng, (n * h * w, c), zeros)


def _leading(a):
    return tuple(range(a.ndim - 1))


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 6), "h": st.integers(1, 12), "w": st.integers(1, 12),
    "c": st.one_of(st.just(1), st.integers(1, 96)),
    "zeros": st.sampled_from([0.0, 0.3, 1.0]),
    "layout_a": st.sampled_from(LAYOUTS),
    "layout_b": st.sampled_from(LAYOUTS),
})


class TestChannelSumExactness:
    @given(case=cases)
    @settings(max_examples=300, deadline=None)
    def test_single_operand_matches_sum(self, case):
        rng = np.random.default_rng(case["seed"])
        a = _operand(rng, case["layout_a"], case["n"], case["h"], case["w"],
                     case["c"], case["zeros"])
        assert _same_bytes(F.channel_sum(a), a.sum(axis=_leading(a)))

    @given(case=cases)
    @settings(max_examples=300, deadline=None)
    def test_product_matches_product_sum(self, case):
        rng = np.random.default_rng(case["seed"])
        dims = (case["n"], case["h"], case["w"], case["c"], case["zeros"])
        a = _operand(rng, case["layout_a"], *dims)
        b = _operand(rng, case["layout_b"], *dims)
        if a.shape != b.shape:
            b = b.reshape(a.shape)
        assert _same_bytes(F.channel_sum(a, b), (a * b).sum(axis=_leading(a)))
        assert _same_bytes(F.channel_sum(a, a), (a * a).sum(axis=_leading(a)))

    def test_one_row(self):
        rng = np.random.default_rng(0)
        for shape in ((1, 1, 1, 7), (1, 7), (1, 1, 1, 1)):
            a, b = _values(rng, shape, 0.2), _values(rng, shape, 0.2)
            assert _same_bytes(F.channel_sum(a), a.sum(axis=_leading(a)))
            assert _same_bytes(F.channel_sum(a, b),
                               (a * b).sum(axis=_leading(a)))

    def test_all_negative_zero_channel(self):
        """A dead channel (grad 0 against negative x_hat) sums to +0.0."""
        grad = np.zeros((4, 5, 5, 3), dtype=np.float32)
        x_hat = -np.ones((4, 5, 5, 3), dtype=np.float32)
        assert _same_bytes(F.channel_sum(grad, x_hat),
                           (grad * x_hat).sum(axis=(0, 1, 2)))


class TestLayoutRule:
    """The einsum path is taken exactly where the sum adds rows in order."""

    @pytest.mark.parametrize("layout,c,row_ordered", [
        ("contiguous", 8, True), ("cropped", 8, True), ("stride2", 8, True),
        ("runs", 8, True), ("rows2d", 8, True),
        ("channel_major", 8, False), ("contiguous", 1, False),
        ("cropped", 1, False),
    ])
    def test_row_ordered(self, layout, c, row_ordered):
        a = _operand(np.random.default_rng(1), layout, 3, 5, 6, c, 0.0)
        assert F._row_ordered(a) is row_ordered

    def test_transposed_leading_axes_take_the_sum(self):
        a = _values(np.random.default_rng(2), (3, 5, 6, 4), 0.0)
        assert not F._row_ordered(a.transpose(1, 0, 2, 3))
