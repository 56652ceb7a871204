"""Tests for genome types and the edit distance."""

import numpy as np
import pytest

from repro.quant import QuantizationPolicy
from repro.space import (ArchGenome, BlockGenes, GenomeDistance,
                         MixedPrecisionGenome)


class TestGenomes:
    def test_block_genes_tuple(self):
        genes = BlockGenes(3, 0.1, 6, 1)
        assert genes.as_tuple() == (3, 0.1, 6, 1)

    def test_arch_needs_7_blocks(self):
        with pytest.raises(ValueError):
            ArchGenome(blocks=(BlockGenes(3, 0.1, 6, 1),) * 6,
                       conv2_filters=1280)

    def test_genome_hash_eq(self, c10_space, rng):
        a = c10_space.random_genome(rng)
        same = MixedPrecisionGenome(a.arch, a.policy)
        assert a == same
        assert hash(a) == hash(same)
        other = c10_space.random_genome(rng)
        assert a != other

    def test_describe(self, c10_space):
        text = c10_space.seed_arch().describe()
        assert "ib1" in text and "conv2" in text


class TestGenomeDistance:
    @pytest.fixture
    def dist(self, c10_space):
        return GenomeDistance(c10_space, policy_weight=0.5)

    def test_identity(self, dist, c10_space, rng):
        g = c10_space.random_genome(rng)
        assert dist(g, g) == 0.0

    def test_symmetry(self, dist, c10_space, rng):
        a = c10_space.random_genome(rng)
        b = c10_space.random_genome(rng)
        assert dist(a, b) == pytest.approx(dist(b, a))

    def test_triangle_inequality(self, dist, c10_space, rng):
        for _ in range(20):
            a = c10_space.random_genome(rng)
            b = c10_space.random_genome(rng)
            c = c10_space.random_genome(rng)
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12

    def test_bounded_by_one(self, dist, c10_space, rng):
        for _ in range(20):
            a = c10_space.random_genome(rng)
            b = c10_space.random_genome(rng)
            assert 0.0 <= dist(a, b) <= 1.0 + 1e-12

    def test_single_mutation_small_distance(self, dist, c10_space, rng):
        g = c10_space.seed_genome()
        mutant = c10_space.mutate(g, rng)
        assert 0.0 <= dist(g, mutant) < 0.1

    def test_policy_weight_scales_policy_changes(self, c10_space, rng):
        g = c10_space.seed_genome()
        flipped = MixedPrecisionGenome(
            g.arch, c10_space.mutate_policy(g.policy, rng, n_mutations=5))
        light = GenomeDistance(c10_space, policy_weight=0.1)
        heavy = GenomeDistance(c10_space, policy_weight=2.0)
        assert heavy(g, flipped) > light(g, flipped)

    def test_pairwise_matches_scalar(self, dist, c10_space, rng):
        genomes = [c10_space.random_genome(rng) for _ in range(5)]
        vectors = np.stack([dist.encode(g) for g in genomes])
        matrix = dist.pairwise(vectors)
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    dist(genomes[i], genomes[j]), abs=1e-12)

    def test_pairwise_rectangular(self, dist, c10_space, rng):
        va = np.stack([dist.encode(c10_space.random_genome(rng))
                       for _ in range(3)])
        vb = np.stack([dist.encode(c10_space.random_genome(rng))
                       for _ in range(4)])
        assert dist.pairwise(va, vb).shape == (3, 4)

    def test_negative_weight_rejected(self, c10_space):
        with pytest.raises(ValueError):
            GenomeDistance(c10_space, policy_weight=-1.0)

    def test_dimension_mismatch_raises(self, dist):
        with pytest.raises(ValueError):
            dist.distance_from_vectors(np.zeros(3), np.zeros(4))
