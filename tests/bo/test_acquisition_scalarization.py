"""Tests for acquisition functions and the Eq. (1) scalarization."""

import numpy as np
import pytest

from repro.bo import (ExpectedImprovement, PosteriorMean,
                      ScalarizationConfig, UpperConfidenceBound,
                      equal_score_accuracy, make_acquisition, scalarize)


class TestUCB:
    def test_tradeoff(self):
        ucb = UpperConfidenceBound(beta=2.0)
        mean = np.array([1.0, 0.5])
        std = np.array([0.0, 1.0])
        scores = ucb.score(mean, std, best_observed=0.0)
        assert scores[1] > scores[0]  # exploration bonus wins

    def test_beta_zero_is_mean(self):
        ucb = UpperConfidenceBound(beta=0.0)
        mean = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            ucb.score(mean, np.ones(2), 0.0), mean)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            UpperConfidenceBound(beta=-1.0)


class TestEI:
    def test_zero_std_no_improvement(self):
        ei = ExpectedImprovement(xi=0.0)
        scores = ei.score(np.array([1.0]), np.array([0.0]),
                          best_observed=2.0)
        assert scores[0] == pytest.approx(0.0, abs=1e-9)

    def test_prefers_high_mean_at_equal_std(self):
        ei = ExpectedImprovement()
        scores = ei.score(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                          best_observed=1.5)
        assert scores[1] > scores[0]

    def test_prefers_high_std_at_equal_mean(self):
        ei = ExpectedImprovement()
        scores = ei.score(np.array([1.0, 1.0]), np.array([0.1, 1.0]),
                          best_observed=1.5)
        assert scores[1] > scores[0]

    def test_nonnegative(self, rng):
        ei = ExpectedImprovement()
        scores = ei.score(rng.normal(size=50), rng.uniform(0.01, 1, 50),
                          best_observed=1.0)
        assert (scores >= 0).all()


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_acquisition("ucb"), UpperConfidenceBound)
        assert isinstance(make_acquisition("ei"), ExpectedImprovement)
        assert isinstance(make_acquisition("mean"), PosteriorMean)
        with pytest.raises(ValueError):
            make_acquisition("thompson")


class TestScalarization:
    CONFIG = ScalarizationConfig(ref_accuracy=0.8, ref_model_size=8.0)

    def test_higher_accuracy_higher_score(self):
        size = 50 * 8 * 1024
        assert scalarize(0.9, size, self.CONFIG) > \
            scalarize(0.8, size, self.CONFIG)

    def test_smaller_model_higher_score(self):
        assert scalarize(0.8, 10 * 8 * 1024, self.CONFIG) > \
            scalarize(0.8, 100 * 8 * 1024, self.CONFIG)

    def test_matches_equation_1(self):
        accuracy, size_bits = 0.85, 123456.0
        expected = 0.85 / 0.8 + 8.0 / np.log10(size_bits)
        assert scalarize(accuracy, size_bits, self.CONFIG) == \
            pytest.approx(expected)

    def test_reference_values_shift_weighting(self):
        size_small, size_big = 5 * 8 * 1024, 500 * 8 * 1024
        size_heavy = ScalarizationConfig(ref_accuracy=0.8,
                                         ref_model_size=16.0)
        # with a heavier size reference, shrinking the model buys more score
        gain_default = (scalarize(0.8, size_small, self.CONFIG)
                        - scalarize(0.8, size_big, self.CONFIG))
        gain_heavy = (scalarize(0.8, size_small, size_heavy)
                      - scalarize(0.8, size_big, size_heavy))
        assert gain_heavy > gain_default

    def test_accuracy_bounds(self):
        with pytest.raises(ValueError):
            scalarize(1.5, 1000.0, self.CONFIG)
        with pytest.raises(ValueError):
            scalarize(-0.1, 1000.0, self.CONFIG)

    def test_tiny_size_rejected(self):
        with pytest.raises(ValueError):
            scalarize(0.5, 5.0, self.CONFIG)

    def test_invalid_references(self):
        with pytest.raises(ValueError):
            ScalarizationConfig(ref_accuracy=0.0)
        with pytest.raises(ValueError):
            ScalarizationConfig(ref_model_size=-1.0)

    @pytest.mark.parametrize("field", ["ref_accuracy", "ref_model_size",
                                       "ref_macs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_references_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScalarizationConfig(**{field: value})


class TestEqualScoreContour:
    def test_inverts_scalarize(self):
        config = ScalarizationConfig()
        accuracy, size_bits = 0.7, 80000.0
        score = scalarize(accuracy, size_bits, config)
        recovered = equal_score_accuracy(score, np.array([size_bits]),
                                         config)
        assert recovered[0] == pytest.approx(accuracy, abs=1e-9)

    def test_contour_rises_with_size(self):
        """Along an equal-score line, bigger models must be more accurate."""
        config = ScalarizationConfig()
        sizes = np.geomspace(1e4, 1e7, 10)
        contour = equal_score_accuracy(2.5, sizes, config)
        assert all(a < b for a, b in zip(contour, contour[1:]))
