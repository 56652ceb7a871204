"""Tests for the ask/tell Bayesian optimizer over genomes."""

import numpy as np
import pytest

from repro.bo import BayesianOptimizer, scalarize, ScalarizationConfig
from repro.quant import model_size_bits
from repro.space import MixedPrecisionGenome, build_model


def synthetic_objective(space):
    """A cheap deterministic stand-in for a trial: Eq. (1) with a proxy
    accuracy that grows with mean bitwidth and model capacity."""
    config = ScalarizationConfig()

    def objective(genome):
        capacity = sum(b.width_multiplier * b.repetitions
                       for b in genome.arch.blocks)
        accuracy = min(0.95, 0.2 + 0.3 * capacity
                       + 0.05 * (genome.policy.mean_bits() - 4))
        model = build_model(genome.arch, 10)
        size = model_size_bits(model, genome.policy)
        return scalarize(max(0.0, accuracy), size, config)

    return objective


class TestBayesianOptimizer:
    def make(self, space, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        kwargs.setdefault("pool_size", 30)
        kwargs.setdefault("n_initial_random", 3)
        return BayesianOptimizer(space, rng, **kwargs)

    def test_first_ask_is_seed_arch(self, c10_space):
        opt = self.make(c10_space)
        first = opt.ask()
        assert first.arch == c10_space.seed_arch()

    def test_ask_tell_loop_runs(self, c10_space):
        opt = self.make(c10_space)
        objective = synthetic_objective(c10_space)
        for _ in range(8):
            genome = opt.ask()
            opt.tell(genome, objective(genome))
        assert opt.n_observations == 8

    def test_never_reproposes_evaluated(self, c10_space):
        opt = self.make(c10_space)
        objective = synthetic_objective(c10_space)
        seen = set()
        for _ in range(10):
            genome = opt.ask()
            assert genome.as_key() not in seen
            seen.add(genome.as_key())
            opt.tell(genome, objective(genome))

    def test_beats_random_search_on_synthetic(self, c10_space):
        """BO should find better scores than pure random sampling with the
        same budget (averaged over seeds to damp noise)."""
        objective = synthetic_objective(c10_space)
        budget = 16
        bo_bests, random_bests = [], []
        for seed in range(3):
            opt = self.make(c10_space, seed=seed)
            for _ in range(budget):
                genome = opt.ask()
                opt.tell(genome, objective(genome))
            bo_bests.append(opt.best()[1])
            rng = np.random.default_rng(100 + seed)
            scores = [objective(c10_space.random_genome(rng))
                      for _ in range(budget)]
            random_bests.append(max(scores))
        assert np.mean(bo_bests) >= np.mean(random_bests) - 0.05

    def test_best_returns_max(self, c10_space, rng):
        opt = self.make(c10_space)
        genomes = [c10_space.random_genome(rng) for _ in range(5)]
        for i, genome in enumerate(genomes):
            opt.tell(genome, float(i))
        best_genome, best_score = opt.best()
        assert best_score == 4.0
        assert best_genome == genomes[4]

    def test_best_empty_raises(self, c10_space):
        with pytest.raises(RuntimeError):
            self.make(c10_space).best()

    def test_tell_rejects_nonfinite(self, c10_space, rng):
        opt = self.make(c10_space)
        with pytest.raises(ValueError):
            opt.tell(c10_space.random_genome(rng), float("nan"))

    def test_custom_sample_fn_respected(self, c10_space):
        fixed_policy = c10_space.seed_policy(4)

        def sample(rng_):
            return MixedPrecisionGenome(c10_space.random_arch(rng_),
                                        fixed_policy)

        opt = self.make(c10_space, sample_fn=sample,
                        mutate_fn=lambda g, r: MixedPrecisionGenome(
                            c10_space.mutate_arch(g.arch, r), fixed_policy))
        objective = synthetic_objective(c10_space)
        for _ in range(8):
            genome = opt.ask()
            assert genome.policy == fixed_policy
            opt.tell(genome, objective(genome))

    def test_parameter_validation(self, c10_space, rng):
        with pytest.raises(ValueError):
            BayesianOptimizer(c10_space, rng, n_initial_random=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(c10_space, rng, pool_size=1)
        with pytest.raises(ValueError):
            BayesianOptimizer(c10_space, rng, elite_fraction=2.0)

    def test_observations_property(self, c10_space, rng):
        opt = self.make(c10_space)
        genome = c10_space.random_genome(rng)
        opt.tell(genome, 1.0)
        assert opt.observations == [(genome, 1.0)]


class TestAskBatch:
    def make(self, space, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        kwargs.setdefault("pool_size", 30)
        kwargs.setdefault("n_initial_random", 3)
        return BayesianOptimizer(space, rng, **kwargs)

    def test_batch_of_one_degenerates_to_ask(self, c10_space):
        assert self.make(c10_space).ask_batch(1) == \
            [self.make(c10_space).ask()]

    def test_batch_candidates_distinct(self, c10_space):
        genomes = self.make(c10_space).ask_batch(4)
        assert len(genomes) == 4
        assert len({g.as_key() for g in genomes}) == 4

    def test_fantasies_retracted(self, c10_space):
        opt = self.make(c10_space)
        objective = synthetic_objective(c10_space)
        genomes = opt.ask_batch(4)
        # constant-liar fantasies must not count as real observations...
        assert opt.n_observations == 0
        assert opt.observations == []
        for genome in genomes:
            opt.tell(genome, objective(genome))
        # ...and telling the real scores afterwards must work normally
        assert opt.n_observations == 4

    def test_batched_loop_runs_past_warmup(self, c10_space):
        opt = self.make(c10_space)
        objective = synthetic_objective(c10_space)
        seen = set()
        for _ in range(4):
            for genome in opt.ask_batch(3):
                assert genome.as_key() not in seen
                seen.add(genome.as_key())
                opt.tell(genome, objective(genome))
        assert opt.n_observations == 12

    def test_each_gp_fit_logs_its_lml(self, c10_space):
        """One ``gp.lml`` gauge per GP fit, tagged with the real
        observations and the constant-liar fantasies that fit saw."""
        from repro.obs.trace import TraceRecorder, use_recorder
        opt = self.make(c10_space)
        objective = synthetic_objective(c10_space)
        for genome in opt.ask_batch(4):     # seed + random warm-up
            opt.tell(genome, objective(genome))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            opt.ask_batch(3)
        fits = [e for e in recorder.events if e.get("name") == "gp.lml"]
        assert [(e["tags"]["n_obs"], e["tags"]["n_fantasies"])
                for e in fits] == [(4, 0), (4, 1), (4, 2)]
        assert all(np.isfinite(e["value"]) for e in fits)

    def test_invalid_batch_size_rejected(self, c10_space):
        with pytest.raises(ValueError):
            self.make(c10_space).ask_batch(0)
