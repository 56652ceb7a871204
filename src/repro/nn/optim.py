"""Optimizers and learning-rate schedules."""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .module import FLOAT, Parameter


class LRSchedule:
    """Base learning-rate schedule: returns the LR for a given step."""

    def __init__(self, base_lr: float) -> None:
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        self.base_lr = base_lr

    def lr_at(self, step: int) -> float:
        return self.base_lr


class ConstantLR(LRSchedule):
    """Constant learning rate."""


class CosineDecayLR(LRSchedule):
    """Cosine decay from ``base_lr`` to ``min_lr`` over ``total_steps``."""

    def __init__(self, base_lr: float, total_steps: int,
                 min_lr: float = 0.0) -> None:
        super().__init__(base_lr)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if min_lr < 0 or min_lr > base_lr:
            raise ValueError("min_lr must be in [0, base_lr]")
        self.total_steps = total_steps
        self.min_lr = min_lr

    def lr_at(self, step: int) -> float:
        progress = min(max(step, 0), self.total_steps) / self.total_steps
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: List[Parameter],
                 schedule: LRSchedule) -> None:
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = params
        self.schedule = schedule
        self.step_count = 0

    @property
    def lr(self) -> float:
        return self.schedule.lr_at(self.step_count)

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        lr = self.lr
        for param in self.params:
            if not param.trainable or param.grad is None:
                continue
            self._update(param, lr)
        self.step_count += 1

    def _update(self, param: Parameter, lr: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()


class SGD(Optimizer):
    """SGD with classical momentum and decoupled weight decay."""

    def __init__(self, params: List[Parameter], schedule: LRSchedule,
                 momentum: float = 0.9, weight_decay: float = 0.0) -> None:
        super().__init__(params, schedule)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def _update(self, param: Parameter, lr: float) -> None:
        grad = param.grad
        if self.weight_decay > 0:
            grad = grad + self.weight_decay * param.data
        key = id(param)
        velocity = self._velocity.get(key)
        if velocity is None:
            velocity = np.zeros_like(param.data)
        velocity = self.momentum * velocity - lr * grad
        self._velocity[key] = velocity
        param.data += velocity.astype(FLOAT, copy=False)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: List[Parameter], schedule: LRSchedule,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, schedule)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _update(self, param: Parameter, lr: float) -> None:
        grad = param.grad
        if self.weight_decay > 0:
            grad = grad + self.weight_decay * param.data
        key = id(param)
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        t = self.step_count + 1
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        param.data -= (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
            FLOAT, copy=False)


def clip_gradients(params: List[Parameter], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    grads: List[Optional[np.ndarray]] = [p.grad for p in params]
    for grad in grads:
        if grad is not None:
            total += float((grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            if grad is not None:
                grad *= scale
    return norm
