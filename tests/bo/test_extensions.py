"""Tests for the BO extension: the MACs objective."""

import pytest

from repro.bo import ScalarizationConfig, scalarize


class TestMacsObjective:
    def test_disabled_by_default(self):
        config = ScalarizationConfig()
        base = scalarize(0.8, 1e5, config)
        with_macs = scalarize(0.8, 1e5, config, macs=1e9)
        assert base == with_macs  # macs ignored when ref_macs unset

    def test_macs_term_added(self):
        config = ScalarizationConfig(ref_macs=4.0)
        score = scalarize(0.8, 1e5, config, macs=1e6)
        base = scalarize(0.8, 1e5, ScalarizationConfig())
        assert score == pytest.approx(base + 4.0 / 6.0)

    def test_fewer_macs_higher_score(self):
        config = ScalarizationConfig(ref_macs=4.0)
        small = scalarize(0.8, 1e5, config, macs=1e5)
        big = scalarize(0.8, 1e5, config, macs=1e8)
        assert small > big

    def test_missing_macs_raises(self):
        config = ScalarizationConfig(ref_macs=4.0)
        with pytest.raises(ValueError):
            scalarize(0.8, 1e5, config)

    def test_invalid_ref(self):
        with pytest.raises(ValueError):
            ScalarizationConfig(ref_macs=0.0)

    def test_search_loop_threads_macs(self, unit_config, tiny_dataset):
        """A search configured with ref_macs must produce scores that
        include the MAC term."""
        from dataclasses import replace
        from repro.nas import BOMPNAS
        config = replace(
            unit_config,
            scalarization=ScalarizationConfig(ref_macs=4.0))
        result = BOMPNAS(config, tiny_dataset).run(final_training=False)
        for trial in result.trials:
            expected = scalarize(trial.accuracy, trial.size_bits,
                                 config.scalarization, macs=trial.macs)
            assert trial.score == pytest.approx(expected)
