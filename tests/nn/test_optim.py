"""Tests for optimizers, schedules and gradient clipping."""

import numpy as np
import pytest

from repro.nn import (SGD, Adam, ConstantLR, CosineDecayLR, Parameter,
                      clip_gradients)


def quadratic_params(rng, n=3):
    """Parameters initialized away from the optimum of f(w) = |w|^2 / 2."""
    return [Parameter(rng.normal(size=(4,)) * 3, name=f"p{i}")
            for i in range(n)]


def quadratic_grads(params):
    for p in params:
        p.grad = p.data.copy()  # grad of |w|^2/2


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR(0.1)
        assert sched.lr_at(0) == sched.lr_at(1000) == 0.1

    def test_cosine_endpoints(self):
        sched = CosineDecayLR(0.1, total_steps=100, min_lr=0.01)
        assert sched.lr_at(0) == pytest.approx(0.1)
        assert sched.lr_at(100) == pytest.approx(0.01)
        assert sched.lr_at(50) == pytest.approx(0.055, rel=1e-6)

    def test_cosine_monotone_decreasing(self):
        sched = CosineDecayLR(1.0, total_steps=50)
        lrs = [sched.lr_at(s) for s in range(51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_past_total(self):
        sched = CosineDecayLR(1.0, total_steps=10)
        assert sched.lr_at(100) == pytest.approx(0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            CosineDecayLR(0.1, total_steps=0)


class TestSGD:
    def test_converges_on_quadratic(self, rng):
        params = quadratic_params(rng)
        opt = SGD(params, ConstantLR(0.1), momentum=0.9)
        for _ in range(200):
            quadratic_grads(params)
            opt.step()
        for p in params:
            assert np.abs(p.data).max() < 1e-3

    def test_plain_sgd_single_step(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], ConstantLR(0.5), momentum=0.0)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(0.0)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], ConstantLR(1.0), momentum=0.5)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        # v1 = -1, v2 = -1.5 -> w = -2.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], ConstantLR(0.1), momentum=0.0, weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 10.0

    def test_frozen_param_untouched(self):
        p = Parameter(np.array([1.0]), trainable=False)
        opt = SGD([p], ConstantLR(0.5))
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == 1.0

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], ConstantLR(0.5))
        opt.step()  # must not raise
        assert p.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self, rng):
        params = quadratic_params(rng)
        opt = Adam(params, ConstantLR(0.1))
        for _ in range(300):
            quadratic_grads(params)
            opt.step()
        for p in params:
            assert np.abs(p.data).max() < 1e-2

    def test_first_step_size_is_lr(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], ConstantLR(0.01))
        p.grad = np.array([100.0], dtype=np.float32)
        opt.step()
        # bias-corrected first step is ~lr regardless of grad magnitude
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-4)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], ConstantLR(0.1), beta1=1.0)


class TestClipGradients:
    def test_clips_large_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_gradients([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_leaves_small_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1, dtype=np.float32)
        clip_gradients([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1, rtol=1e-6)

    def test_handles_none_grads(self):
        p = Parameter(np.zeros(4))
        assert clip_gradients([p], max_norm=1.0) == 0.0

    def test_optimizer_needs_params(self):
        with pytest.raises(ValueError):
            SGD([], ConstantLR(0.1))
