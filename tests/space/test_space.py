"""Tests for the Table I search space: cardinality, sampling, operators."""

import numpy as np
import pytest

from repro.quant import QuantizationPolicy
from repro.space import (CIFAR10_WIDTH_CHOICES, CIFAR100_WIDTH_CHOICES,
                         MixedPrecisionGenome, SearchSpace)


class TestCardinality:
    def test_architectures_match_paper(self, c10_space):
        # 30 * 1080^5 * 180 * 5 = 3.967e19
        assert c10_space.num_architectures() == \
            30 * 1080 ** 5 * 180 * 5
        assert c10_space.num_architectures() == pytest.approx(3.96e19,
                                                              rel=5e-3)

    def test_policies_match_paper(self, c10_space):
        assert c10_space.num_policies() == 5 ** 23
        assert c10_space.num_policies() == pytest.approx(1.19e16, rel=5e-3)

    def test_joint_is_product(self, c10_space):
        assert c10_space.num_total() == \
            c10_space.num_architectures() * c10_space.num_policies()

    def test_cifar100_same_cardinality(self, c10_space, c100_space):
        assert c100_space.num_architectures() == \
            c10_space.num_architectures()


class TestMenus:
    def test_width_menus_per_dataset(self, c10_space, c100_space):
        assert c10_space.width_choices == CIFAR10_WIDTH_CHOICES
        assert c100_space.width_choices == CIFAR100_WIDTH_CHOICES

    def test_block1_restrictions(self, c10_space):
        block1 = c10_space.blocks[0]
        assert block1.expansion_choices == (1,)
        assert block1.repetition_choices == (1,)

    def test_block7_repetitions_fixed(self, c10_space):
        assert c10_space.blocks[6].repetition_choices == (1,)

    def test_middle_blocks_fully_searchable(self, c10_space):
        for block in c10_space.blocks[1:6]:
            assert block.num_choices() == 6 * 5 * 6 * 6

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            SearchSpace("imagenet")


class TestSeed:
    def test_seed_matches_table1_bold(self, c10_space):
        seed = c10_space.seed_arch()
        for genes in seed.blocks:
            assert genes.kernel == 3
            assert genes.width_multiplier == 0.1
            assert genes.repetitions == 1
        assert seed.blocks[0].expansion == 1
        for genes in seed.blocks[1:]:
            assert genes.expansion == 6
        assert seed.conv2_filters == 1280

    def test_seed_policy_homogeneous_8(self, c10_space):
        policy = c10_space.seed_policy()
        assert policy.is_homogeneous()
        assert policy.min_bits() == 8
        assert len(policy) == 23

    def test_seed_genome_valid(self, c10_space):
        c10_space.validate(c10_space.seed_genome())

    def test_cifar100_seed_width(self, c100_space):
        assert c100_space.seed_arch().blocks[0].width_multiplier == 0.75


class TestSampling:
    def test_random_genomes_valid(self, c10_space, rng):
        for _ in range(50):
            c10_space.validate(c10_space.random_genome(rng))

    def test_random_genomes_diverse(self, c10_space, rng):
        genomes = {c10_space.random_genome(rng).as_key()
                   for _ in range(30)}
        assert len(genomes) == 30  # astronomically unlikely to collide

    def test_sampling_deterministic_per_seed(self, c10_space):
        a = c10_space.random_genome(np.random.default_rng(5))
        b = c10_space.random_genome(np.random.default_rng(5))
        assert a == b


class TestMutation:
    def test_mutation_changes_and_stays_valid(self, c10_space, rng):
        genome = c10_space.seed_genome()
        changed = 0
        for _ in range(30):
            mutant = c10_space.mutate(genome, rng)
            c10_space.validate(mutant)
            if mutant != genome:
                changed += 1
        assert changed >= 25  # a mutation may redraw the same value

    def test_policy_fixed_mutation_keeps_policy(self, c10_space, rng):
        genome = c10_space.seed_genome()
        for _ in range(20):
            mutant = c10_space.mutate(genome, rng, policy_fixed=True)
            assert mutant.policy == genome.policy

    def test_mutate_arch_single_gene(self, c10_space, rng):
        arch = c10_space.seed_arch()
        diffs = []
        for _ in range(20):
            mutant = c10_space.mutate_arch(arch, rng, n_mutations=1)
            flat_a = [g for b in arch.blocks for g in b.as_tuple()]
            flat_m = [g for b in mutant.blocks for g in b.as_tuple()]
            ndiff = sum(a != m for a, m in zip(flat_a, flat_m))
            ndiff += arch.conv2_filters != mutant.conv2_filters
            diffs.append(ndiff)
        assert max(diffs) <= 1

    def test_mutate_policy_bounded(self, c10_space, rng):
        policy = c10_space.seed_policy()
        mutant = c10_space.mutate_policy(policy, rng, n_mutations=3)
        ndiff = sum(policy.as_dict()[s] != mutant.as_dict()[s]
                    for s in c10_space.slot_names)
        assert ndiff <= 3

    def test_invalid_mutation_count(self, c10_space, rng):
        with pytest.raises(ValueError):
            c10_space.mutate_arch(c10_space.seed_arch(), rng, n_mutations=0)


class TestCrossover:
    def test_child_genes_come_from_parents(self, c10_space, rng):
        a = c10_space.random_genome(rng)
        b = c10_space.random_genome(rng)
        child = c10_space.crossover(a, b, rng)
        c10_space.validate(child)
        for i, genes in enumerate(child.arch.blocks):
            assert genes in (a.arch.blocks[i], b.arch.blocks[i])
        bits = child.policy.as_dict()
        for slot in c10_space.slot_names:
            assert bits[slot] in (a.policy.as_dict()[slot],
                                  b.policy.as_dict()[slot])


class TestValidation:
    def test_rejects_wrong_policy_slots(self, c10_space):
        genome = c10_space.seed_genome()
        bad = MixedPrecisionGenome(
            genome.arch, QuantizationPolicy({"only": 8}))
        with pytest.raises(ValueError):
            c10_space.validate(bad)

    def test_rejects_foreign_width(self, c10_space, c100_space):
        genome = c100_space.seed_genome()  # widths not in CIFAR-10 menu
        with pytest.raises(ValueError):
            c10_space.validate(genome)


class TestEncoding:
    def test_dimension(self, c10_space):
        genome = c10_space.seed_genome()
        vec = c10_space.encode(genome)
        # four genes per block, conv2 filters, one bitwidth per slot
        assert vec.shape == (4 * 7 + 1 + 23,)

    def test_values_in_unit_interval(self, c10_space, rng):
        for _ in range(20):
            vec = c10_space.encode(c10_space.random_genome(rng))
            assert (vec >= 0).all() and (vec <= 1).all()

    def test_identical_genomes_identical_encodings(self, c10_space, rng):
        g = c10_space.random_genome(rng)
        np.testing.assert_array_equal(c10_space.encode(g),
                                      c10_space.encode(g))

    def test_summary_renders(self, c10_space):
        text = c10_space.summary()
        assert "architectures" in text
        assert "23 slots" in text
