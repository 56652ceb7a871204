"""Gaussian-process surrogate over genome encodings.

A standard exact GP with observation noise, fit by Cholesky factorization.
Inputs are genome encoding vectors; the kernel is a distance kernel
(:mod:`repro.bo.kernels`) applied to a pairwise edit-distance matrix
(:class:`repro.space.distance.GenomeDistance`).  Targets are standardized
internally, and a jitter ladder keeps the Cholesky stable for kernels that
are not guaranteed PSD on L1 metrics (Matérn-5/2).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .kernels import Kernel


class GaussianProcess:
    """Exact GP regression with a pluggable distance function.

    Args:
        kernel: distance kernel.
        distance_fn: maps two stacks of encoding vectors to a pairwise
            distance matrix.
        noise: observation noise variance added to the diagonal.
    """

    def __init__(self, kernel: Kernel,
                 distance_fn: Callable[[np.ndarray, Optional[np.ndarray]],
                                       np.ndarray],
                 noise: float = 1e-4) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel
        self.distance_fn = distance_fn
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._y_standardized: Optional[np.ndarray] = None
        self._cho = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def fitted(self) -> bool:
        return self._x is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fit to encodings ``x`` of shape (n, d) and scores ``y`` of (n,)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"bad shapes: x {x.shape}, y {y.shape}")
        if x.shape[0] == 0:
            raise ValueError("need at least one observation")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std())
        if self._y_std < 1e-12:
            self._y_std = 1.0
        y_standardized = (y - self._y_mean) / self._y_std
        gram = self.kernel(self.distance_fn(x, x))
        n = gram.shape[0]
        jitter = self.noise
        for _ in range(8):
            try:
                factor = cholesky(gram + jitter * np.eye(n), lower=True)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-10)
        else:
            raise np.linalg.LinAlgError(
                "Gram matrix not PSD even after jitter ladder")
        self._cho = (factor, True)
        self._alpha = cho_solve(self._cho, y_standardized)
        self._y_standardized = y_standardized
        self._x = x

    def predict(self, x_new: np.ndarray,
                return_std: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and std) at new encodings, on the original scale."""
        if not self.fitted:
            raise RuntimeError("predict called before fit")
        x_new = np.asarray(x_new, dtype=np.float64)
        if x_new.ndim != 2:
            raise ValueError(f"expected (m, d) encodings, got {x_new.shape}")
        k_star = self.kernel(self.distance_fn(x_new, self._x))
        mean = k_star @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean, np.zeros_like(mean)
        v = cho_solve(self._cho, k_star.T)
        prior_var = np.diag(self.kernel(np.zeros((1, 1))))[0]
        var = prior_var - np.einsum("ij,ji->i", k_star, v)
        var = np.clip(var, 1e-12, None)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the standardized targets.

        Computed from the fitted model itself: its Cholesky factor holds
        the Gram matrix plus the jitter the fit settled on, so the value
        describes the model :meth:`predict` uses even where the jitter
        ladder escalated past ``noise``.
        """
        if not self.fitted:
            raise RuntimeError("model not fitted")
        factor = self._cho[0]
        n = self._y_standardized.shape[0]
        data_fit = -0.5 * float(self._y_standardized @ self._alpha)
        log_det = -float(np.log(np.diag(factor)).sum())
        return data_fit + log_det - 0.5 * n * np.log(2 * np.pi)
