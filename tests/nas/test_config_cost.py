"""Tests for search configs, modes, scale presets and the cost model."""

import pytest

from repro.nas import (SCALE_PRESETS, SEARCH_MODES, SEED_MACS_32, CostModel,
                       SearchConfig, get_mode, get_scale)


class TestModes:
    def test_all_five_modes_exist(self):
        assert set(SEARCH_MODES) == {"mp_qaft", "mp_ptq", "fixed8_ptq",
                                     "fixed4_qaft", "fp_nas"}

    def test_bomp_mode_shape(self):
        mode = get_mode("mp_qaft")
        assert mode.search_policy
        assert mode.quantize_in_loop
        assert mode.qaft_in_loop
        assert mode.fixed_bits is None

    def test_baseline_mode_shape(self):
        mode = get_mode("fp_nas")
        assert not mode.quantize_in_loop
        assert mode.fixed_bits == 8

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            get_mode("nas_only")

    def test_mode_invariants_enforced(self):
        from repro.nas.config import SearchMode
        with pytest.raises(ValueError):
            SearchMode("bad", search_policy=True, quantize_in_loop=True,
                       qaft_in_loop=False, fixed_bits=8)
        with pytest.raises(ValueError):
            SearchMode("bad", search_policy=False, quantize_in_loop=False,
                       qaft_in_loop=True, fixed_bits=8)


class TestScales:
    def test_paper_scale_matches_protocol(self):
        paper = get_scale("paper")
        assert paper.trials == 100
        assert paper.early_epochs == 20
        assert paper.qaft_epochs == 1
        assert paper.final_epochs == 200
        assert paper.final_qaft_epochs == 5
        assert paper.n_train == 50000

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("BOMP_SCALE", raising=False)
        assert get_scale().name == "smoke"
        monkeypatch.setenv("BOMP_SCALE", "unit")
        assert get_scale().name == "unit"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_all_presets_valid(self):
        for preset in SCALE_PRESETS.values():
            assert preset.trials > 0
            assert preset.n_train > 0


class TestSearchConfig:
    def test_policies_per_trial_needs_mp(self):
        with pytest.raises(ValueError):
            SearchConfig(mode=get_mode("fixed8_ptq"), policies_per_trial=2)

    def test_describe(self):
        assert "mp_qaft" in SearchConfig().describe()

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            SearchConfig(dataset="mnist")


class TestCostModel:
    def test_calibration_reproduces_table4_ptq_row(self):
        """100 trials x 20 epochs of the seed net on paper-scale CIFAR-10
        must cost ~10 GPU-hours (8-bit PTQ-aware NAS row of Table IV)."""
        cost = CostModel()
        per_trial = cost.trial_hours(SEED_MACS_32, 50000, early_epochs=20,
                                     qaft_epochs=0)
        total = 100 * per_trial
        assert total == pytest.approx(10.0, rel=0.02)

    def test_qaft_epoch_overhead_reproduces_12n(self):
        """Adding 1 QAFT epoch at the default overhead lands on ~12N."""
        cost = CostModel()
        per_trial = cost.trial_hours(SEED_MACS_32, 50000, early_epochs=20,
                                     qaft_epochs=1)
        assert 100 * per_trial == pytest.approx(12.0, rel=0.02)

    def test_epoch_hours_linear_in_macs(self):
        cost = CostModel()
        assert cost.epoch_hours(2000, 100) == \
            pytest.approx(2 * cost.epoch_hours(1000, 100))

    def test_qaft_overhead_applied(self):
        cost = CostModel(qaft_overhead=3.0)
        fp = cost.epoch_hours(1000, 100)
        qa = cost.epoch_hours(1000, 100, quantization_aware=True)
        assert qa == pytest.approx(3 * fp)

    def test_final_training_hours(self):
        cost = CostModel()
        hours = cost.final_training_hours(SEED_MACS_32, 50000, 200, 5)
        assert hours > cost.final_training_hours(SEED_MACS_32, 50000, 200, 0)

    def test_normalization_identity_at_paper_scale(self):
        cost = CostModel()
        assert cost.normalize_to_paper_protocol(
            12.0, trials=100, early_epochs=20, n_train=50000,
            image_size=32) == pytest.approx(12.0)

    def test_normalization_scales_up_reduced_runs(self):
        cost = CostModel()
        normalized = cost.normalize_to_paper_protocol(
            1.0, trials=10, early_epochs=2, n_train=500, image_size=16)
        assert normalized == pytest.approx(
            1.0 * 10 * 10 * 100 * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(qaft_overhead=0.5)
        with pytest.raises(ValueError):
            CostModel().epoch_hours(0, 100)
        with pytest.raises(ValueError):
            CostModel().trial_hours(100, 100, early_epochs=-1)
