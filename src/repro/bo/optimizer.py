"""The ask/tell Bayesian optimizer over mixed-precision genomes.

Implements the paper's search strategy (Section III): a Gaussian-process
surrogate with a Matérn kernel over genome edit distances and a UCB
acquisition function.  Because the space is discrete and combinatorial, the
acquisition is maximized over a candidate pool of (a) mutations of the
best-scoring observed genomes and (b) fresh random samples — the sampling
analogue of AutoKeras' edit-based tree search.

The optimizer is mode-agnostic: search modes that freeze the quantization
policy (fixed-precision, post-NAS baseline) inject their own ``sample_fn``
and ``mutate_fn``.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from ..obs.trace import get_recorder
from ..space.distance import GenomeDistance
from ..space.genome import MixedPrecisionGenome
from ..space.space import SearchSpace
from .acquisition import AcquisitionFunction, UpperConfidenceBound
from .gp import GaussianProcess
from .kernels import Kernel, Matern52

SampleFn = Callable[[np.random.Generator], MixedPrecisionGenome]
MutateFn = Callable[[MixedPrecisionGenome, np.random.Generator],
                    MixedPrecisionGenome]


class BayesianOptimizer:
    """Sequential model-based optimizer over the joint genome space.

    Args:
        space: the search space (provides encodings and default operators).
        rng: random generator driving all sampling.
        kernel: GP kernel (default Matérn-5/2, the paper's choice).
        acquisition: acquisition function (default UCB).
        n_initial_random: observations before the surrogate takes over; the
            very first ask returns the seed genome as a known-good anchor.
        pool_size: candidate pool size per ask.
        elite_fraction: fraction of best observed genomes mutated to build
            the pool (the rest of the pool is random exploration).
        sample_fn / mutate_fn: optional overrides for restricted modes.
        policy_weight: weight of policy coordinates in the edit distance.
    """

    def __init__(self, space: SearchSpace, rng: np.random.Generator,
                 kernel: Optional[Kernel] = None,
                 acquisition: Optional[AcquisitionFunction] = None,
                 n_initial_random: int = 5,
                 pool_size: int = 200,
                 elite_fraction: float = 0.5,
                 sample_fn: Optional[SampleFn] = None,
                 mutate_fn: Optional[MutateFn] = None,
                 policy_weight: float = 0.5,
                 noise: float = 1e-3) -> None:
        if n_initial_random < 1:
            raise ValueError("n_initial_random must be >= 1")
        if pool_size < 2:
            raise ValueError("pool_size must be >= 2")
        if not 0.0 <= elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in [0, 1]")
        self.space = space
        self.rng = rng
        self.distance = GenomeDistance(space, policy_weight=policy_weight)
        self.kernel = kernel if kernel is not None else Matern52(
            length_scale=0.1)
        self.acquisition = (acquisition if acquisition is not None
                            else UpperConfidenceBound())
        self.n_initial_random = n_initial_random
        self.pool_size = pool_size
        self.elite_fraction = elite_fraction
        self.sample_fn = sample_fn or space.random_genome
        self.mutate_fn = mutate_fn or (
            lambda genome, rng_: space.mutate(genome, rng_))
        self.gp = GaussianProcess(self.kernel, self.distance.pairwise,
                                  noise=noise)
        self._genomes: List[MixedPrecisionGenome] = []
        self._scores: List[float] = []
        self._encodings: List[np.ndarray] = []
        self._seen: Set[Tuple] = set()
        self._seed_given = False
        self._fantasy_count = 0
        self._fantasy_keys: List[Tuple] = []

    # -- observation bookkeeping -----------------------------------------
    @property
    def n_observations(self) -> int:
        """Real (non-fantasy) observations recorded via :meth:`tell`."""
        return len(self._genomes) - self._fantasy_count

    @property
    def observations(self) -> List[Tuple[MixedPrecisionGenome, float]]:
        return list(zip(self._genomes, self._scores))

    def best(self) -> Tuple[MixedPrecisionGenome, float]:
        """The best (genome, score) observed so far."""
        if not self._scores:
            raise RuntimeError("no observations yet")
        index = int(np.argmax(self._scores))
        return self._genomes[index], self._scores[index]

    def tell(self, genome: MixedPrecisionGenome, score: float) -> None:
        """Record a completed trial."""
        if not np.isfinite(score):
            raise ValueError(f"score must be finite, got {score}")
        if self._fantasy_count:
            # a real observation supersedes any leftover fantasies
            self._clear_fantasies()
        encoding = self.distance.encode(genome)
        recorder = get_recorder()
        if recorder.enabled and self.gp.fitted:
            # predicted-vs-observed residual of the model *before* this
            # observation — the GP calibration signal the report plots
            mean, std = self.gp.predict(encoding[None, :])
            recorder.gauge("gp.residual", float(score) - float(mean[0]),
                           predicted=float(mean[0]), std=float(std[0]),
                           observed=float(score))
        self._genomes.append(genome)
        self._scores.append(float(score))
        self._encodings.append(encoding)
        self._seen.add(genome.as_key())

    # -- checkpoint state --------------------------------------------------
    def state_dict(self) -> dict:
        """The optimizer's non-replayable state, JSON-serializable.

        Observations are *not* included: replaying the recorded trial
        history through :meth:`tell` reconstructs the GP training data,
        encodings, and dedup set exactly.  What cannot be replayed is the
        RNG (consumed by ``ask``'s sampling/mutation, not ``tell``) and
        the seed-anchor flag — those are captured here.  Must be called at
        a batch boundary (no pending constant-liar fantasies).
        """
        if self._fantasy_count:
            raise RuntimeError(
                "cannot snapshot optimizer state mid-batch: "
                f"{self._fantasy_count} constant-liar fantasies pending")
        state = self.rng.bit_generator.state
        return {"seed_given": self._seed_given,
                "rng_state": json.loads(json.dumps(state))}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (after replaying tells).

        With the recorded observations replayed through :meth:`tell` and
        this state restored, the next :meth:`ask_batch` proposes exactly
        the candidates an uninterrupted run would have proposed.
        """
        self._seed_given = bool(state["seed_given"])
        self.rng.bit_generator.state = state["rng_state"]

    # -- constant-liar fantasies (batched proposal) -----------------------
    def _add_fantasy(self, genome: MixedPrecisionGenome,
                     score: float) -> None:
        """Pretend ``genome`` was observed at ``score`` (the lie)."""
        self._genomes.append(genome)
        self._scores.append(float(score))
        self._encodings.append(self.distance.encode(genome))
        self._fantasy_count += 1
        key = genome.as_key()
        if key not in self._seen:
            self._seen.add(key)
            self._fantasy_keys.append(key)

    def _clear_fantasies(self) -> None:
        """Retract all fantasy observations (they append last, pop last)."""
        if self._fantasy_count:
            del self._genomes[-self._fantasy_count:]
            del self._scores[-self._fantasy_count:]
            del self._encodings[-self._fantasy_count:]
            self._fantasy_count = 0
        for key in self._fantasy_keys:
            self._seen.discard(key)
        self._fantasy_keys.clear()

    # -- candidate proposal ------------------------------------------------
    def ask(self) -> MixedPrecisionGenome:
        """Propose the next genome to evaluate."""
        if not self._seed_given:
            self._seed_given = True
            seed = self._default_seed()
            if seed.as_key() not in self._seen:
                return seed
        if self.n_observations < self.n_initial_random:
            return self._unseen_random()
        self.gp.fit(np.stack(self._encodings), np.asarray(self._scores))
        recorder = get_recorder()
        if recorder.enabled:
            recorder.gauge("gp.lml", self.gp.log_marginal_likelihood(),
                           n_obs=self.n_observations,
                           n_fantasies=self._fantasy_count)
        pool = self._build_pool()
        if not pool:
            return self._unseen_random()
        encodings = np.stack([self.distance.encode(g) for g in pool])
        mean, std = self.gp.predict(encodings)
        best_score = max(self._scores)
        acquisition = self.acquisition.score(mean, std, best_score)
        chosen = int(np.argmax(acquisition))
        if recorder.enabled:
            recorder.gauge("bo.acq_best", float(acquisition[chosen]),
                           pred_mean=float(mean[chosen]),
                           pred_std=float(std[chosen]),
                           pool_size=len(pool))
        return pool[chosen]

    def ask_batch(self, q: int) -> List[MixedPrecisionGenome]:
        """Propose ``q`` genomes to evaluate concurrently.

        Uses the constant-liar strategy: after each proposal, the optimizer
        pretends the candidate was observed at the current best *real*
        score, so subsequent proposals in the batch are pushed away from it
        and the batch stays diverse.  All fantasies are retracted before
        returning — real :meth:`tell` calls then record the true outcomes
        in proposal order.

        ``ask_batch(1)`` degenerates to a single :meth:`ask`.
        """
        if q < 1:
            raise ValueError("batch size must be >= 1")
        genomes = [self.ask()]
        if q == 1:
            return genomes
        lie = max(self._scores) if self.n_observations else 0.0
        try:
            for _ in range(q - 1):
                self._add_fantasy(genomes[-1], lie)
                genomes.append(self.ask())
        finally:
            self._clear_fantasies()
        return genomes

    def _default_seed(self) -> MixedPrecisionGenome:
        """Seed anchor: the Table I seed arch under the mode's sampling.

        The policy part comes from ``sample_fn`` so that restricted modes
        (fixed 4/8-bit) anchor on their own policy rather than the MP seed.
        """
        sampled = self.sample_fn(self.rng)
        return MixedPrecisionGenome(self.space.seed_arch(), sampled.policy)

    def _unseen_random(self, max_tries: int = 100) -> MixedPrecisionGenome:
        for _ in range(max_tries):
            genome = self.sample_fn(self.rng)
            if genome.as_key() not in self._seen:
                return genome
        return genome  # astronomically unlikely in a 1e35 space

    def _build_pool(self) -> List[MixedPrecisionGenome]:
        """Mutations of elites + random exploration, deduplicated."""
        n_elite_slots = int(self.pool_size * self.elite_fraction)
        order = np.argsort(self._scores)[::-1]
        n_elites = max(1, min(5, len(order)))
        elites = [self._genomes[i] for i in order[:n_elites]]
        pool: List[MixedPrecisionGenome] = []
        seen_pool: Set[Tuple] = set()
        for i in range(n_elite_slots):
            parent = elites[i % n_elites]
            child = self.mutate_fn(parent, self.rng)
            key = child.as_key()
            if key not in self._seen and key not in seen_pool:
                pool.append(child)
                seen_pool.add(key)
        tries = 0
        max_tries = 10 * self.pool_size
        while len(pool) < self.pool_size and tries < max_tries:
            tries += 1
            genome = self.sample_fn(self.rng)
            key = genome.as_key()
            if key not in self._seen and key not in seen_pool:
                pool.append(genome)
                seen_pool.add(key)
        return pool
