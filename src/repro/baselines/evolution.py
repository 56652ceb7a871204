"""Aging evolution and the search that runs it, shared by JASQ and μNAS.

Regularized (aging) evolution (Real et al., 2019): keep a FIFO population;
each cycle, tournament-sample a parent from the population, mutate it into
a child, evaluate the child, append it and evict the oldest member.  This
is the search strategy the paper's main comparators use, and its tendency
to get stuck in local minima (Section II, on JASQ) is exactly what BO is
introduced to fix.

:class:`EvolutionSearch` is BOMP-NAS with this strategy in place of BO:
the trial loop, candidate evaluation, final training and tracing are
:meth:`BOMPNAS.run`'s own, so the comparison differs only in the search
strategy, as the paper's does.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..nas.results import SearchResult
from ..nas.search import BOMPNAS
from ..space.genome import MixedPrecisionGenome

SampleFn = Callable[[np.random.Generator], MixedPrecisionGenome]
MutateFn = Callable[[MixedPrecisionGenome, np.random.Generator],
                    MixedPrecisionGenome]

#: population capacity and tournament size of the evolutionary baselines;
#: a short trial budget caps the population at half the trials
POPULATION_SIZE = 16
TOURNAMENT_SIZE = 4


class AgingEvolution:
    """Tournament-based aging evolution over genomes.

    Args:
        population_size: FIFO population capacity.
        tournament_size: candidates sampled per parent selection.
        sample_fn / mutate_fn: genome operators (mode-restricted by caller).
    """

    def __init__(self, rng: np.random.Generator,
                 sample_fn: SampleFn, mutate_fn: MutateFn,
                 population_size: int = 16,
                 tournament_size: int = 4) -> None:
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= tournament_size <= population_size:
            raise ValueError(
                "tournament_size must be in [1, population_size]")
        self.rng = rng
        self.sample_fn = sample_fn
        self.mutate_fn = mutate_fn
        self.population_size = population_size
        self.tournament_size = tournament_size
        self._population: Deque[Tuple[MixedPrecisionGenome, float]] = deque()
        self._history: List[Tuple[MixedPrecisionGenome, float]] = []

    @property
    def history(self) -> List[Tuple[MixedPrecisionGenome, float]]:
        return list(self._history)

    @property
    def population(self) -> List[Tuple[MixedPrecisionGenome, float]]:
        return list(self._population)

    def ask(self) -> MixedPrecisionGenome:
        """Next genome to evaluate: random during warm-up, else mutation."""
        if len(self._history) < self.population_size:
            return self.sample_fn(self.rng)
        indices = self.rng.choice(len(self._population),
                                  size=self.tournament_size, replace=False)
        parent = max((self._population[int(i)] for i in indices),
                     key=lambda entry: entry[1])[0]
        return self.mutate_fn(parent, self.rng)

    def ask_batch(self, q: int) -> List[MixedPrecisionGenome]:
        """Propose ``q`` genomes for concurrent evaluation.

        Each proposal runs its own tournament against the *current*
        population — no fantasy updates are needed because aging evolution
        never conditions a proposal on pending evaluations.
        ``ask_batch(1)`` is exactly one :meth:`ask`.
        """
        if q < 1:
            raise ValueError("batch size must be >= 1")
        return [self.ask() for _ in range(q)]

    def tell(self, genome: MixedPrecisionGenome, score: float) -> None:
        """Record an evaluation; evicts the oldest member when full."""
        if not np.isfinite(score):
            raise ValueError(f"score must be finite, got {score}")
        self._history.append((genome, score))
        self._population.append((genome, score))
        if len(self._population) > self.population_size:
            self._population.popleft()

    def best(self) -> Tuple[MixedPrecisionGenome, float]:
        if not self._history:
            raise RuntimeError("no evaluations recorded")
        return max(self._history, key=lambda entry: entry[1])


class EvolutionSearch(BOMPNAS):
    """BOMP-NAS with aging evolution as its search strategy.

    Checkpointing stays BO-only: :meth:`run` takes no checkpoint or
    resume argument.
    """

    def make_optimizer(self) -> AgingEvolution:
        population = min(POPULATION_SIZE,
                         max(2, self.config.scale.trials // 2))
        return AgingEvolution(
            self.rng, sample_fn=self._sample_genome,
            mutate_fn=self._mutate_genome, population_size=population,
            tournament_size=min(TOURNAMENT_SIZE, population))

    def run(self, final_training: bool = True, workers: int = 1,
            batch_size: Optional[int] = None) -> SearchResult:
        return super().run(final_training=final_training, workers=workers,
                           batch_size=batch_size)
