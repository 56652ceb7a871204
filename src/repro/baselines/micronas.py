"""μNAS-like baseline: constrained aging evolution with 8-bit PTQ.

Liberis et al., "μNAS: Constrained neural architecture search for
microcontrollers" (2020) search architectures (no mixed precision) under a
hard resource budget, deploying with homogeneous 8-bit post-training
quantization.  This module reproduces that scheme on the BOMP-NAS search
space: aging evolution over architecture-only genomes, candidates
early-trained and PTQ'd to 8 bits, maximizing accuracy subject to a model
size budget (violations are penalized proportionally to the overshoot).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..data.datasets import Dataset
from ..nas.config import SearchConfig, get_mode
from ..nas.results import SearchResult
from ..nas.trial import TrialResult
from .evolution import EvolutionSearch


def constrained_score(accuracy: float, size_kb: float,
                      size_budget_kb: float,
                      penalty_per_kb: float = 0.02) -> float:
    """Accuracy with a linear penalty for exceeding the size budget."""
    if size_budget_kb <= 0:
        raise ValueError("size_budget_kb must be positive")
    if penalty_per_kb < 0:
        raise ValueError("penalty_per_kb must be non-negative")
    overshoot = max(0.0, size_kb - size_budget_kb)
    return accuracy - penalty_per_kb * overshoot


class MicroNASSearch(EvolutionSearch):
    """Size-constrained aging evolution with homogeneous 8-bit PTQ."""

    def __init__(self, config: SearchConfig, dataset: Dataset,
                 size_budget_kb: float = 16.0) -> None:
        if size_budget_kb <= 0:
            raise ValueError("size_budget_kb must be positive")
        super().__init__(replace(config, mode=get_mode("fixed8_ptq")),
                         dataset)
        self.size_budget_kb = size_budget_kb

    def objective(self, trial: TrialResult) -> float:
        # the constrained score drives evolution; the recorded trial keeps
        # the Eq. 1 score for cross-method comparison
        return constrained_score(trial.accuracy, trial.size_kb,
                                 self.size_budget_kb)

    def final_candidates(self, result: SearchResult) -> List[TrialResult]:
        """The within-budget Pareto trials, else the first Pareto trial."""
        pareto = result.pareto_trials()
        within = [t for t in pareto if t.size_kb <= self.size_budget_kb]
        return within or pareto[:1]
