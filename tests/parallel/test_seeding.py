"""Tests for deterministic per-trial seeding."""

import pytest

from repro.parallel import trial_seed


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_distinct_per_index(self):
        seeds = {trial_seed(0, i) for i in range(64)}
        assert len(seeds) == 64

    def test_distinct_per_run_seed(self):
        assert trial_seed(0, 5) != trial_seed(1, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed(0, -1)
