"""Deployment report: packed sizes vs the analytic accounting, and
liveness-based peak activation memory."""

import numpy as np
import pytest

from repro.infer import deployment_report, format_report
from repro.infer.compile import Stage
from repro.infer.plan import peak_liveness
from repro.quant import model_size_bits
from repro.quant.apply import BIAS_BITS, quantizable_layers
from repro.quant.size import FLOAT_BITS, layer_sizes


class TestWeightAccounting:
    def test_weight_bytes_are_packed_and_padded(self, program8):
        report = deployment_report(program8)
        assert report.layers  # one entry per weighted stage
        for layer in report.layers:
            expected = -(-layer.weight_count * layer.weight_bits // 8)
            assert layer.weight_bytes == expected
            assert layer.weight_bits == 8

    def test_overhead_matches_size_model_formula(self, program8):
        for layer in deployment_report(program8).layers:
            out_channels = layer.out_shape[-1]
            bits = out_channels * BIAS_BITS
            if layer.weight_bits < FLOAT_BITS:
                bits += out_channels * FLOAT_BITS + 2 * FLOAT_BITS
            assert layer.overhead_bytes == bits // 8

    def test_totals_agree_with_analytic_accounting(self, model8,
                                                   program8):
        """Packed bytes == quant.size analytic bits, up to the <=1 byte
        per layer of bit-packing padding."""
        report = deployment_report(program8)
        analytic_bits = model_size_bits(model8)
        padding = report.total_bytes - analytic_bits / 8
        assert 0 <= padding < len(report.layers)

    def test_per_layer_counts_match_model(self, model8, program8):
        by_name = {s.name: s for s in layer_sizes(model8)}
        for layer in deployment_report(program8).layers:
            assert layer.weight_count == by_name[layer.name].n_weights

    def test_macs_total(self, program8):
        report = deployment_report(program8)
        assert report.total_macs == program8.total_macs()
        assert report.total_macs == sum(l.macs for l in report.layers)

    def test_mixed_policy_smaller_than_8bit(self, model8, model_mixed,
                                            infer_dataset):
        from repro.infer import compile_model
        size = infer_dataset.x_train.shape[1]
        full = deployment_report(compile_model(model8, size))
        mixed = deployment_report(compile_model(model_mixed, size))
        assert mixed.weight_bytes < full.weight_bytes


class TestLiveness:
    def test_hand_computed_peak_with_residual(self):
        """in/out live during each stage; a residual source's input stays
        live from the stage after the source until its consumer."""
        stages = [
            Stage("s0", "conv", (4, 4, 3), (4, 4, 8)),    # 48 + 128
            Stage("s1", "conv", (4, 4, 8), (4, 4, 8),     # 128 + 128
                  save_input=True),
            Stage("s2", "conv", (4, 4, 8), (4, 4, 8),     # 128+128+128
                  residual_from=1),
            Stage("s3", "gap", (4, 4, 8), (8,)),          # 128 + 8
        ]
        peak, peak_stage = peak_liveness(stages)
        assert (peak, peak_stage) == (384, "s2")

    def test_hand_computed_peak_without_residual(self):
        stages = [
            Stage("wide", "conv", (4, 4, 3), (4, 4, 16)),  # 48 + 256
            Stage("narrow", "conv", (4, 4, 16), (2, 2, 16)),  # 256 + 64
        ]
        peak, peak_stage = peak_liveness(stages)
        assert (peak, peak_stage) == (320, "narrow")

    def test_residual_not_double_counted_at_source(self):
        """During the source stage itself the saved tensor IS its input
        operand — it must not be counted twice."""
        stages = [
            Stage("src", "conv", (4, 4, 8), (2, 2, 4), save_input=True),
            Stage("mid", "conv", (2, 2, 4), (2, 2, 4)),
            Stage("snk", "conv", (2, 2, 4), (2, 2, 4), residual_from=0),
        ]
        peak, peak_stage = peak_liveness(stages)
        # src: 128+16 = 144; mid: 16+16+128 = 160; snk: 16+16+128 = 160
        assert peak == 160
        assert peak_stage == "mid"

    def test_real_program_peak(self, program8):
        report = deployment_report(program8)
        biggest = max(int(np.prod(s.in_shape)) + int(np.prod(s.out_shape))
                      for s in program8.stages)
        assert report.peak_activation_bytes >= biggest
        assert report.peak_stage in {s.name for s in program8.stages}


class TestFormatting:
    def test_format_report_renders_all_layers(self, model8, program8):
        text = format_report(deployment_report(program8))
        for layer in quantizable_layers(model8):
            assert layer.name in text
        assert "TOTAL" in text
        assert "peak INT8 activation memory" in text

    def test_total_kb_property(self, program8):
        report = deployment_report(program8)
        assert report.total_kb == pytest.approx(report.total_bytes / 1024)
