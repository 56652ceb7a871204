"""Unit tests for the fixed-point requantization primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import (quantize_multiplier, quantize_multipliers,
                         requantize, rounding_doubling_high_mul,
                         rounding_right_shift)


class TestQuantizeMultiplier:
    def test_reconstructs_multiplier(self):
        for m in (0.5, 0.123456, 1.0, 1.7, 1e-6, 3.75, 2.0 ** -20):
            q, shift = quantize_multiplier(m)
            assert 2 ** 30 <= q < 2 ** 31
            assert q * 2.0 ** (shift - 31) == pytest.approx(m, rel=2e-9)

    def test_exact_powers_of_two(self):
        for exp in (-8, -1, 0, 1, 5):
            q, shift = quantize_multiplier(2.0 ** exp)
            assert q == 2 ** 30
            assert shift == exp + 1
            assert q * 2.0 ** (shift - 31) == 2.0 ** exp

    def test_degenerate_zero(self):
        assert quantize_multiplier(0.0) == (0, 0)
        assert quantize_multiplier(-1.0) == (0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize_multiplier(float("inf"))
        with pytest.raises(ValueError):
            quantize_multiplier(float("nan"))

    def test_vector_form_matches_scalar(self):
        ms = np.array([0.25, 0.7, 1.3, 0.0, 1e-4])
        qs, shifts = quantize_multipliers(ms)
        for m, q, shift in zip(ms, qs, shifts):
            assert (int(q), int(shift)) == quantize_multiplier(float(m))


class TestRoundingPrimitives:
    def test_high_mul_is_rounded_product(self):
        x = np.array([0, 1, -1, 1000, -1000, 2 ** 30], dtype=np.int64)
        q = (1 << 30) + 12345
        # round-half-up(x*q / 2^31), in exact (Python int) arithmetic
        expected = [(int(xi) * q + 2 ** 30) // 2 ** 31 for xi in x]
        np.testing.assert_array_equal(rounding_doubling_high_mul(x, q),
                                      expected)

    def test_right_shift_rounds_half_up(self):
        v = np.array([5, 6, 7, -5, -6, -7], dtype=np.int64)
        np.testing.assert_array_equal(rounding_right_shift(v, 2),
                                      [1, 2, 2, -1, -1, -2])

    def test_right_shift_zero_is_identity(self):
        v = np.array([3, -3], dtype=np.int64)
        np.testing.assert_array_equal(rounding_right_shift(v, 0), v)

    def test_right_shift_rejects_negative(self):
        with pytest.raises(ValueError):
            rounding_right_shift(np.array([1]), -1)


class TestRequantize:
    def test_multiplier_one_is_exact(self):
        """M = 1 (dead-BN-channel substitution) must be the identity."""
        q, shift = quantize_multiplier(1.0)
        acc = np.array([-1000, -1, 0, 1, 7, 123456], dtype=np.int64)
        np.testing.assert_array_equal(requantize(acc, q, shift), acc)

    @given(m=st.floats(1e-6, 8.0), acc=st.integers(-2 ** 24, 2 ** 24))
    @settings(max_examples=200, deadline=None)
    def test_within_one_lsb_of_float(self, m, acc):
        """requantize(acc, M) stays within 1 of round(acc * M)."""
        q, shift = quantize_multiplier(m)
        got = int(requantize(np.array([acc], dtype=np.int64), q, shift)[0])
        assert abs(got - round(acc * m)) <= 1

    def test_per_channel_broadcast(self):
        acc = np.ones((2, 3), dtype=np.int64) * 1024
        qs, shifts = quantize_multipliers(np.array([0.5, 1.0, 2.0]))
        out = requantize(acc, qs, shifts)
        np.testing.assert_array_equal(out, [[512, 1024, 2048]] * 2)

    def test_zero_multiplier_zeroes_output(self):
        acc = np.array([123, -456], dtype=np.int64)
        np.testing.assert_array_equal(requantize(acc, 0, 0), [0, 0])

    @pytest.mark.parametrize("m", [2.0 ** 20 + 0.5, 1.0e8, 2.0 ** 29.5])
    def test_large_multiplier_is_exact_beyond_the_input_contract(self, m):
        """An all-zero calibration gives a 1e-8-wide output grid and a
        multiplier near 2**27; ``|acc << shift|`` then leaves the
        gemmlowp contract, and the result must still be the exact
        rounded product (saturating the clamp), not an int64 wrap."""
        q, shift = quantize_multiplier(m)
        assert 0 < shift <= 30
        acc = np.array([-2 ** 30, -1785, -1, 0, 1, 1785, 2 ** 30 - 1],
                       dtype=np.int64)
        expected = [(int(a) * q * 2 ** shift + 2 ** 30) >> 31 for a in acc]
        np.testing.assert_array_equal(requantize(acc, q, shift), expected)

    def test_pre_shift_beyond_cap_keeps_sign_and_scale(self):
        """Past MAX_PRESHIFT the multiplier is applied as 2**30-ish: any
        nonzero accumulator still lands at least 2**29 codes off zero,
        on its own side."""
        from repro.infer.requant import MAX_PRESHIFT
        q, shift = quantize_multiplier(2.0 ** 40)
        assert shift > MAX_PRESHIFT
        acc = np.array([-2 ** 30, -1, 0, 1, 2 ** 30], dtype=np.int64)
        out = requantize(acc, q, shift)
        np.testing.assert_array_equal(np.sign(out), np.sign(acc))
        assert np.all(np.abs(out) >= np.abs(acc) * 2 ** 29)


class TestVectorScalarParity:
    """quantize_multipliers must be element-wise identical to the scalar
    decomposition over the whole multiplier range the compiler emits."""

    def test_wide_sweep_matches_scalar(self):
        rng = np.random.default_rng(17)
        ms = np.concatenate([
            np.geomspace(2.0 ** -40, 8.0, 1501),       # 48 octaves, dense
            2.0 ** np.arange(-35.0, 4.0),              # exact powers of two
            np.nextafter(2.0 ** np.arange(-20.0, 3.0), np.inf),
            np.nextafter(2.0 ** np.arange(-20.0, 3.0), -np.inf),
            rng.uniform(1e-9, 4.0, 500),               # typical M range
            [0.0, -1.0, -0.25, 2.0 ** -45, 1.0 - 2.0 ** -53],
        ])
        qs, shifts = quantize_multipliers(ms)
        for m, q, shift in zip(ms, qs, shifts):
            assert (int(q), int(shift)) == quantize_multiplier(float(m)), m

    def test_mantissa_range_invariant(self):
        ms = np.geomspace(1e-12, 8.0, 4001)
        qs, _ = quantize_multipliers(ms)
        assert np.all(qs >= 2 ** 30) and np.all(qs < 2 ** 31)

    def test_rejects_non_finite_vector(self):
        with pytest.raises(ValueError):
            quantize_multipliers(np.array([0.5, np.inf]))
        with pytest.raises(ValueError):
            quantize_multipliers(np.array([np.nan]))


class TestRequantizeInto:
    """The fused in-place kernel must match requantize() bit-for-bit."""

    def _plan(self, ms):
        from repro.infer.requant import RequantPlan
        qs, shifts = quantize_multipliers(ms)
        return RequantPlan.build(qs, shifts), qs, shifts

    def test_matches_reference_per_channel(self):
        from repro.infer.requant import requantize_into
        rng = np.random.default_rng(5)
        ms = np.concatenate([rng.uniform(1e-6, 0.9, 13), [1.0, 2.0, 3.5]])
        plan, qs, shifts = self._plan(ms)
        # respect the gemmlowp input contract |acc << spos| < 2**31:
        # the largest positive pre-shift here is 2 (m = 3.5)
        acc = rng.integers(-(2 ** 28), 2 ** 28,
                           size=(64, ms.size)).astype(np.int32)
        work = np.empty(acc.shape, dtype=np.int64)
        got = requantize_into(acc, plan, work)
        np.testing.assert_array_equal(
            got, requantize(acc.astype(np.int64), qs, shifts))
        assert got is work                     # truly in place

    @given(m=st.floats(1e-6, 8.0), acc=st.integers(-2 ** 27, 2 ** 27))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_property(self, m, acc):
        from repro.infer.requant import requantize_into
        plan, qs, shifts = self._plan(np.array([m]))
        accs = np.array([[acc]], dtype=np.int32)
        work = np.empty((1, 1), dtype=np.int64)
        got = int(requantize_into(accs, plan, work)[0, 0])
        ref = int(requantize(accs.astype(np.int64), qs, shifts)[0, 0])
        assert got == ref

    def test_matches_reference_beyond_the_input_contract(self):
        """Huge multipliers (degenerate output grids) and capped
        pre-shifts, mixed with ordinary channels in one plan."""
        from repro.infer.requant import requantize_into
        ms = np.array([1.0e8, 0.3, 2.0 ** 40, 1.0, 3.5])
        plan, qs, shifts = self._plan(ms)
        acc = np.random.default_rng(9).integers(
            -(2 ** 31), 2 ** 31, size=(50, ms.size)).astype(np.int32)
        work = np.empty(acc.shape, dtype=np.int64)
        np.testing.assert_array_equal(
            requantize_into(acc, plan, work),
            requantize(acc.astype(np.int64), qs, shifts))

    def test_in_place_on_int64_residual_workspace(self):
        """The residual path requantizes its own int64 workspace in
        place (acc is work): must still match the reference."""
        from repro.infer.requant import requantize_into
        rng = np.random.default_rng(8)
        ms = rng.uniform(1e-4, 1.5, 6)
        plan, qs, shifts = self._plan(ms)
        vals = rng.integers(-(2 ** 28), 2 ** 28, size=(32, 6))
        work = vals.astype(np.int64)
        got = requantize_into(work, plan, work)
        np.testing.assert_array_equal(got, requantize(vals, qs, shifts))
