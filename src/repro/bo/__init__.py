"""Bayesian-optimization engine: GP surrogate, kernels, acquisitions,
scalarization (Eq. 1) and Pareto utilities."""

from .acquisition import (ACQUISITIONS, AcquisitionFunction,
                          ExpectedImprovement, PosteriorMean,
                          UpperConfidenceBound, make_acquisition)
from .gp import GaussianProcess
from .kernels import (KERNELS, RBF, Exponential, Kernel, Matern32, Matern52,
                      make_kernel)
from .optimizer import BayesianOptimizer
from .pareto import (best_accuracy_under, dominates, hypervolume,
                     pareto_front, pareto_indices)
from .scalarization import (ScalarizationConfig, equal_score_accuracy,
                            scalarize)

__all__ = [
    "GaussianProcess", "BayesianOptimizer",
    "Kernel", "Matern52", "Matern32", "Exponential", "RBF", "make_kernel",
    "KERNELS",
    "AcquisitionFunction", "UpperConfidenceBound", "ExpectedImprovement",
    "PosteriorMean", "make_acquisition", "ACQUISITIONS",
    "ScalarizationConfig", "scalarize", "equal_score_accuracy",
    "dominates", "pareto_indices", "pareto_front", "hypervolume",
    "best_accuracy_under",
]
