"""Tests for the evolutionary core and the comparator searches."""

import numpy as np
import pytest

from repro.baselines import (AgingEvolution, JASQSearch, MicroNASSearch,
                             SequentialSearch, constrained_score)
from repro.baselines.reference import (TABLE2_REFERENCES, TABLE3_REFERENCES,
                                       TABLE4_PAPER, table2_rows)
from repro.nas import SearchConfig, get_mode
from repro.obs.trace import TraceRecorder, use_recorder

#: a μNAS size budget some but not all unit-scale Pareto trials fit
BUDGET_KB = 40.0


class CapturingMicroNAS(MicroNASSearch):
    """μNAS that keeps the strategy it hands the trial loop."""

    def make_optimizer(self):
        self.strategy = super().make_optimizer()
        return self.strategy


def trial_rows(result):
    return [(t.index, t.genome.as_key(), t.score, t.accuracy,
             t.fp_accuracy, t.size_bits, t.macs) for t in result.trials]


def final_rows(result):
    return [(m.trial_index, m.accuracy) for m in result.final_models]


@pytest.fixture(scope="module")
def traced_runs(unit_scale, tiny_dataset):
    """JASQ and μNAS, with final training, traced at workers 1 and 2."""
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=unit_scale, seed=0)
    makers = {"jasq": lambda: JASQSearch(config, tiny_dataset),
              "micronas": lambda: CapturingMicroNAS(
                  config, tiny_dataset, size_budget_kb=BUDGET_KB)}
    runs = {}
    for name, make in makers.items():
        for workers in (1, 2):
            search = make()
            recorder = TraceRecorder()
            with use_recorder(recorder):
                result = search.run(final_training=True, workers=workers)
            spans = [e["trial"] for e in recorder.events
                     if e["type"] == "span" and e["kind"] == "trial"]
            runs[name, workers] = (search, result, spans)
    return runs


class TestAgingEvolution:
    def make(self, c10_space, seed=0, population=6, tournament=3):
        rng = np.random.default_rng(seed)
        return AgingEvolution(
            rng, sample_fn=c10_space.random_genome,
            mutate_fn=lambda g, r: c10_space.mutate(g, r),
            population_size=population, tournament_size=tournament)

    def test_warmup_then_mutation(self, c10_space):
        evo = self.make(c10_space)
        objective = lambda g: float(g.policy.mean_bits())
        for _ in range(6):  # warm-up: random sampling
            g = evo.ask()
            evo.tell(g, objective(g))
        assert len(evo.population) == 6
        child = evo.ask()  # now a mutation of a tournament winner
        c10_space.validate(child)

    def test_population_fifo_eviction(self, c10_space):
        evo = self.make(c10_space, population=3)
        genomes = []
        for i in range(5):
            g = evo.ask()
            genomes.append(g)
            evo.tell(g, float(i))
        assert len(evo.population) == 3
        assert len(evo.history) == 5
        # oldest two evicted
        population_keys = {g.as_key() for g, _ in evo.population}
        assert genomes[0].as_key() not in population_keys

    def test_optimizes_synthetic_objective(self, c10_space):
        """Evolution should push mean bitwidth up when score rewards it."""
        evo = self.make(c10_space, seed=3, population=8)
        objective = lambda g: float(g.policy.mean_bits())
        for _ in range(40):
            genome = evo.ask()
            evo.tell(genome, objective(genome))
        history = evo.history
        first_scores = [s for _, s in history[:8]]
        last_scores = [s for _, s in history[-8:]]
        assert np.mean(last_scores) > np.mean(first_scores)

    def test_best(self, c10_space):
        evo = self.make(c10_space)
        scores = [0.3, 0.9, 0.1]
        for s in scores:
            evo.tell(c10_space.random_genome(evo.rng), s)
        assert evo.best()[1] == 0.9

    def test_validation(self, c10_space):
        with pytest.raises(ValueError):
            self.make(c10_space, population=1)
        with pytest.raises(ValueError):
            self.make(c10_space, population=4, tournament=5)
        evo = self.make(c10_space)
        with pytest.raises(RuntimeError):
            evo.best()
        with pytest.raises(ValueError):
            evo.tell(c10_space.random_genome(evo.rng), float("inf"))


class TestJASQ:
    def test_runs_and_forces_ptq_mode(self, unit_config, tiny_dataset):
        search = JASQSearch(unit_config, tiny_dataset)
        assert search.config.mode.name == "mp_ptq"
        result = search.run(final_training=False)
        assert len(result.trials) == unit_config.scale.trials
        # JASQ searches mixed precision
        all_bits = set()
        for t in result.trials:
            all_bits |= set(t.genome.policy.as_dict().values())
        assert len(all_bits) > 1

    def test_final_training(self, unit_config, tiny_dataset):
        result = JASQSearch(unit_config, tiny_dataset).run(
            final_training=True)
        assert result.final_models

    def test_checkpoints_stay_bo_only(self, unit_config, tiny_dataset,
                                      tmp_path):
        with pytest.raises(TypeError):
            JASQSearch(unit_config, tiny_dataset).run(
                final_training=False, checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestMicroNAS:
    def test_constrained_score(self):
        assert constrained_score(0.8, 10.0, size_budget_kb=16.0) == 0.8
        penalized = constrained_score(0.8, 26.0, size_budget_kb=16.0)
        assert penalized < 0.8
        assert penalized == pytest.approx(0.8 - 0.02 * 10)

    def test_constrained_score_validation(self):
        with pytest.raises(ValueError):
            constrained_score(0.8, 10.0, size_budget_kb=0.0)

    def test_runs_with_8bit_policies(self, unit_config, tiny_dataset):
        search = MicroNASSearch(unit_config, tiny_dataset,
                                size_budget_kb=40.0)
        result = search.run(final_training=False)
        for trial in result.trials:
            assert set(trial.genome.policy.as_dict().values()) == {8}

    def test_budget_validation(self, unit_config, tiny_dataset):
        with pytest.raises(ValueError):
            MicroNASSearch(unit_config, tiny_dataset, size_budget_kb=-1.0)


class TestSequential:
    def test_two_stage_pipeline(self, unit_config, tiny_dataset):
        search = SequentialSearch(unit_config, tiny_dataset,
                                  policy_trials=5)
        stage1, policies = search.run()
        assert stage1.config.mode.name == "fp_nas"
        assert len(policies) == 5
        # sorted best-first by Eq. 1 score: verify ordering is consistent
        for policy, accuracy, size_kb in policies:
            assert 0.0 <= accuracy <= 1.0
            assert size_kb > 0

    def test_policy_trials_validation(self, unit_config, tiny_dataset):
        with pytest.raises(ValueError):
            SequentialSearch(unit_config, tiny_dataset, policy_trials=0)


@pytest.mark.parametrize("name", ["jasq", "micronas"])
class TestOneLoop:
    """The baselines run on BOMPNAS.run, like BOMP-NAS itself."""

    def test_bit_identical_across_workers(self, traced_runs, name):
        _, serial, _ = traced_runs[name, 1]
        _, pooled, _ = traced_runs[name, 2]
        assert trial_rows(pooled) == trial_rows(serial)
        assert serial.final_models
        assert final_rows(pooled) == final_rows(serial)

    def test_same_trial_spans_across_workers(self, traced_runs, name):
        _, result, serial_spans = traced_runs[name, 1]
        _, _, pooled_spans = traced_runs[name, 2]
        assert serial_spans == [t.index for t in result.trials]
        assert pooled_spans == serial_spans


class TestMicroNASHooks:
    def test_strategy_told_constrained_score(self, traced_runs):
        search, result, _ = traced_runs["micronas", 1]
        told = [score for _, score in search.strategy.history]
        assert told == [constrained_score(t.accuracy, t.size_kb, BUDGET_KB)
                        for t in result.trials]
        assert told != [t.score for t in result.trials]

    def test_finalizes_within_budget_pareto_trials(self, traced_runs):
        search, result, _ = traced_runs["micronas", 1]
        within = [t.index for t in result.pareto_trials()
                  if t.size_kb <= BUDGET_KB]
        assert within
        assert [m.trial_index for m in result.final_models] == within
        # JASQ's unit-scale front straddles the budget
        _, straddling, _ = traced_runs["jasq", 1]
        front = straddling.pareto_trials()
        within = [t for t in front if t.size_kb <= BUDGET_KB]
        assert within and len(within) < len(front)
        assert search.final_candidates(straddling) == within

    def test_finalizes_first_pareto_trial_when_none_fits(self, unit_config,
                                                         tiny_dataset):
        result = MicroNASSearch(unit_config, tiny_dataset,
                                size_budget_kb=0.01).run(final_training=True)
        assert [m.trial_index for m in result.final_models] == \
            [result.pareto_trials()[0].index]


class TestReferences:
    def test_table2_row_counts(self):
        assert len(TABLE2_REFERENCES) == 9
        assert len(table2_rows("cifar10")) == 3
        assert len(table2_rows("cifar100")) == 6

    def test_table3_formulas(self):
        apq = next(e for e in TABLE3_REFERENCES if e.method == "APQ")
        assert apq.cost(0) == 2400.0
        assert apq.cost(10) == 2405.0
        jasq = next(e for e in TABLE3_REFERENCES if e.method == "JASQ")
        assert jasq.cost(2) == 144.0

    def test_table4_has_all_cells(self):
        modes = {"fixed8_ptq", "mp_ptq", "mp_qaft", "fixed4_qaft"}
        datasets = {"cifar10", "cifar100"}
        assert set(TABLE4_PAPER) == {(m, d) for m in modes for d in datasets}

    def test_cost_validation(self):
        apq = TABLE3_REFERENCES[0]
        with pytest.raises(ValueError):
            apq.cost(-1)
