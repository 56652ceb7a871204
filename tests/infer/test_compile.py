"""Compiler tests: stage structure, error paths, grid plumbing."""

import numpy as np
import pytest

from repro.infer import CompileError, compile_model
from repro.infer.compile import INT32_MAX, INT32_MIN
from repro.nn.blocks import ConvBNReLU
from repro.nn.conv import Conv2D
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.quant import QuantizationPolicy, apply_policy, calibrate
from repro.space import build_model

from ..quant.test_quantizers import TIE_LEVELS, tie_model
from .conftest import make_quantized_model


def _tagged(layer):
    layer.quant_slot = "w"
    return layer


@pytest.fixture
def custom_model(rng):
    """Bare-layer graph: conv+BN+ReLU6, a biased conv with no activation
    feeding the global average pool (deferred clamp), classifier."""
    model = Sequential([
        _tagged(Conv2D(3, 4, 3, rng=rng, name="c1")),
        BatchNorm2D(4, name="bn1"),
        ReLU6(name="r1"),
        _tagged(Conv2D(4, 6, 3, use_bias=True, rng=rng, name="c2")),
        GlobalAvgPool2D(),
        _tagged(Dense(6, 10, rng=rng, name="fc")),
    ])
    # nonzero conv bias so compilation must fold it into the accumulator
    model.layers[3].bias.data = np.random.default_rng(7).normal(
        0.0, 0.5, 6).astype(np.float32)
    apply_policy(model, QuantizationPolicy({"w": 8}))
    x = np.random.default_rng(3).normal(
        size=(32, 8, 8, 3)).astype(np.float32)
    calibrate(model, x)
    model.set_training(False)
    return model, x


class TestCompile:
    def test_stage_graph_shape(self, program8, model8):
        from repro.quant.apply import quantizable_layers
        kinds = [s.kind for s in program8.stages]
        assert kinds[-1] == "dense"
        assert "gap" in kinds
        weighted = [k for k in kinds if k in ("conv", "dw", "dense")]
        assert len(weighted) == len(quantizable_layers(model8))
        # shapes chain: each stage consumes its predecessor's output
        for prev, cur in zip(program8.stages, program8.stages[1:]):
            assert cur.in_shape == prev.out_shape

    def test_macs_match_builder_accounting(self, program8, model8,
                                           infer_dataset):
        from repro.space.builder import count_macs
        size = infer_dataset.x_test.shape[1]
        assert program8.total_macs() == count_macs(model8, (size, size))

    def test_residual_stages_save_inputs(self, program8):
        sources = {s.residual_from for s in program8.stages
                   if s.residual_from is not None}
        assert sources  # the seed arch has residual bottlenecks
        for src in sources:
            assert program8.stages[src].save_input
            assert program8.stages[src].kind in ("conv", "dw")

    def test_residual_stages_get_wider_budget(self, program8):
        for stage in program8.stages:
            if stage.residual_from is not None:
                assert stage.round_steps == 4
            elif stage.kind in ("conv", "dw"):
                assert stage.round_steps == 2

    def test_gap_reapplies_range_clamp(self, program8):
        gap = next(s for s in program8.stages if s.kind == "gap")
        assert gap.clamp_lo == 0
        assert 0 < gap.clamp_hi <= 2 ** 16

    def test_weights_are_integer_codes(self, program8):
        for stage in program8.stages:
            if stage.weight is not None:
                assert stage.weight.dtype.kind == "i"
                qmax = 2 ** (stage.weight_bits - 1) - 1
                assert np.abs(stage.weight).max() <= qmax

    def test_weight_codes_are_the_fake_quantizers_levels(self, rng):
        """The compiled codes are the levels the fake-quant reference
        rounds to, even where its float32 quotient sits exactly on a half
        and a float64 re-derivation would round the other way."""
        model = tie_model()
        calibrate(model, rng.normal(size=(4, 4, 4, 1)).astype(np.float32))
        program = compile_model(model, 4)
        assert program.stages[0].weight.ravel().tolist() == TIE_LEVELS

    def test_uncalibrated_model_rejected(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        apply_policy(model, c10_space.seed_policy(8))
        with pytest.raises(CompileError):
            compile_model(model, 8)

    def test_unquantized_model_rejected(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        with pytest.raises(CompileError):
            compile_model(model, 8)

    def test_wide_bits_rejected(self, c10_space, infer_dataset):
        space_16 = type(c10_space)("cifar10", bitwidth_choices=(4, 16))
        model = make_quantized_model(space_16, space_16.seed_policy(16),
                                     infer_dataset, float_epochs=0,
                                     qaft_epochs=0)
        with pytest.raises(CompileError, match="8-bit"):
            compile_model(model, infer_dataset.x_test.shape[1])

    def test_non_classifier_graph_rejected(self, rng):
        model = Sequential([Dense(8, 4, rng=rng), Dense(4, 2, rng=rng)])
        with pytest.raises(CompileError):
            compile_model(model, 8)

    @pytest.mark.parametrize("make_stray", [
        lambda: Module(name="mystery"),
        # a ReLU6 with no bare conv before it has no stage to fuse into
        lambda: ReLU6(name="lone_relu6"),
        # a BatchNorm2D folds only into the bare conv just before it
        lambda: BatchNorm2D(4, name="lone_bn"),
        # containers are not flattened: only the top level is lowered
        lambda: Sequential([ReLU6(name="inner")], name="nested"),
    ], ids=["module", "relu6", "batchnorm", "sequential"])
    def test_layer_outside_the_stage_kinds_rejected(self, rng, make_stray):
        """Only conv, dw, gap and dense stages exist: any other layer is
        refused by name."""
        stray = make_stray()
        model = Sequential([
            ConvBNReLU(3, 4, kernel=3, stride=1, rng=rng, name="stem"),
            stray,
            GlobalAvgPool2D(),
            Dense(4, 10, rng=rng, name="fc"),
        ])
        with pytest.raises(CompileError, match=stray.name):
            compile_model(model, 8)


class TestCustomGraph:
    """Bare-layer peephole path: conv [+BN] [+ReLU6], layer-bias folding,
    and genuine clamp deferral into the global average pool."""

    def test_flattening_and_stage_kinds(self, custom_model):
        model, _ = custom_model
        program = compile_model(model, 8, name="custom")
        kinds = [s.kind for s in program.stages]
        # BN and ReLU6 fuse into their conv; everything else maps 1:1
        assert kinds == ["conv", "conv", "gap", "dense"]
        assert program.stages[-1].out_shape == (10,)

    def test_relu6_clamps_at_zero_point_and_six(self, custom_model):
        model, _ = custom_model
        program = compile_model(model, 8, name="custom")
        c1 = program.stages[0]
        # ReLU6: floor at the output zero-point, ceiling at zp + 6/s_y,
        # intersected with the code range
        scale = model.layers[3].input_quantizer.quant_params()[0]
        assert c1.clamp_lo == c1.out_zp
        assert c1.clamp_hi == min(2 ** 8 - 1,
                                  c1.out_zp + int(np.round(6.0 / scale)))

    def test_deferred_clamp_before_gap(self, custom_model):
        model, _ = custom_model
        program = compile_model(model, 8, name="custom")
        c2 = program.stages[1]
        # activation-free conv feeding the pool: range clamp fully deferred
        assert (c2.clamp_lo, c2.clamp_hi) == (INT32_MIN, INT32_MAX)
        pool = program.stages[2]
        assert pool.kind == "gap"
        assert (pool.clamp_lo, pool.clamp_hi) == (0, 2 ** 8 - 1)
        assert pool.round_steps == 1

    def test_layer_bias_is_folded(self, custom_model):
        model, _ = custom_model
        program = compile_model(model, 8, name="custom")
        c2 = program.stages[1]
        assert np.abs(c2.bias_acc).max() > 0

    def test_integer_run_tracks_fake_quant(self, custom_model):
        from repro.infer import check_parity
        model, x = custom_model
        program = compile_model(model, 8, name="custom")
        report = check_parity(model, program, x)
        assert report.ok(min_agreement=0.99), report.format()
