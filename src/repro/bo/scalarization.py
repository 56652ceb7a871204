"""Multi-objective scalarization — Eq. (1) of the paper.

BO needs a single number per trial; BOMP-NAS combines task accuracy
(maximize) and model size (minimize) as::

    score = accuracy / ref_accuracy + ref_model_size / log10(size_bits)

with accuracy as a fraction in [0, 1].  Equal-score contours of this
function trace the Pareto-front shape the search pushes toward; the
reference values tune the relative importance of the two objectives
(ref_accuracy = 0.8 and ref_model_size = 8 for CIFAR-10, 6 for CIFAR-100
in the paper's experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ScalarizationConfig:
    """Reference values of Eq. (1).

    ``ref_macs`` extends Eq. (1) with a third minimization objective
    (compute), following the paper's note that "the evaluation criteria in
    BOMP-NAS are flexible": when set, ``ref_macs / log10(macs)`` is added
    to the score, pushing the search toward low-MAC models as well.
    """

    ref_accuracy: float = 0.8
    ref_model_size: float = 8.0
    ref_macs: Optional[float] = None

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not 0 < self.ref_accuracy < np.inf:
            raise ValueError("ref_accuracy must be finite and positive")
        if not 0 < self.ref_model_size < np.inf:
            raise ValueError("ref_model_size must be finite and positive")
        if self.ref_macs is not None and not 0 < self.ref_macs < np.inf:
            raise ValueError("ref_macs must be finite and positive when set")


def scalarize(accuracy: float, model_size_bits: float,
              config: ScalarizationConfig,
              macs: Optional[float] = None) -> float:
    """Eq. (1): combine accuracy and size into one score (higher = better).

    Args:
        accuracy: task accuracy as a fraction in [0, 1].
        model_size_bits: deployed model size in bits (must exceed 10 so the
            log term stays positive).
        macs: per-inference multiply-accumulates; only consumed when the
            config sets ``ref_macs`` (the flexible-objectives extension).
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if model_size_bits <= 10.0:
        raise ValueError(
            f"model size must exceed 10 bits, got {model_size_bits}")
    accuracy_term = accuracy / config.ref_accuracy
    size_term = config.ref_model_size / np.log10(model_size_bits)
    score = accuracy_term + size_term
    if config.ref_macs is not None:
        if macs is None or macs <= 10.0:
            raise ValueError("ref_macs set but no usable MAC count given")
        score += config.ref_macs / np.log10(macs)
    return float(score)


def equal_score_accuracy(score: float, model_size_bits: np.ndarray,
                         config: ScalarizationConfig) -> np.ndarray:
    """Accuracy along the equal-score contour at ``score``.

    Inverts Eq. (1) for accuracy given size — these are the dotted
    equal-score lines of Figs. 2/4/6/7.  Values outside [0, 1] mean the
    contour leaves the feasible accuracy range at that size.
    """
    sizes = np.asarray(model_size_bits, dtype=np.float64)
    if (sizes <= 10.0).any():
        raise ValueError("model sizes must exceed 10 bits")
    size_term = config.ref_model_size / np.log10(sizes)
    return (score - size_term) * config.ref_accuracy
