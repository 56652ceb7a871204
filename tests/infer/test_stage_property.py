"""Arena equals oracle, stage by stage, over drawn one-conv programs.

Each example compiles one quantized ``Conv2D`` or ``DepthwiseConv2D``
with BatchNorm and ReLU6, then a global average pool and a Dense
classifier, at {4..8}-bit weights, and requires
``ArenaExecutor.step`` to reproduce ``Program.run_stage`` bit for bit:
at batch 1 and on prefix views of a larger executor.  The draws cover
what the fixtures' programs do not: kernels 1-7 (an even kernel pads
"same" asymmetrically), strides 1 and 2 with both paddings, a single
channel, and channel counts on both sides of the contraction layout's
K = N switch, whose rule each example checks too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import compile_model
from repro.infer.engine import ArenaExecutor
from repro.nn.conv import Conv2D, DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from repro.nn.network import Sequential
from repro.quant import QuantizationPolicy, apply_policy, calibrate

from .test_engine_arena import _reference_inputs

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "depthwise": st.booleans(),
    "kernel": st.integers(1, 7),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from(["same", "valid"]),
    "size": st.integers(1, 11),
    "c_in": st.sampled_from([1, 2, 3, 5, 8]),
    "c_out": st.integers(1, 72),
    "conv_bits": st.integers(4, 8),
    "fc_bits": st.integers(4, 8),
    "images": st.integers(2, 6),
})


def _program(case, rng):
    """The drawn model, compiled, and its float input images."""
    c, k, stride = case["c_in"], case["kernel"], case["stride"]
    size = case["size"]
    if case["padding"] == "valid":
        size = max(size, k)
    if case["depthwise"]:
        cout = c
        conv = DepthwiseConv2D(c, k, stride, case["padding"], rng=rng,
                               name="conv")
    else:
        cout = case["c_out"]
        conv = Conv2D(c, cout, k, stride, case["padding"], rng=rng,
                      name="conv")
    conv.quant_slot = "conv"
    bn = BatchNorm2D(cout, name="bn")
    # a BN the compiler must really fold: drawn statistics, and for more
    # than one channel a negative gamma and a dead (multiplier-1) channel
    bn.running_mean = rng.normal(0.0, 0.5, cout).astype(np.float32)
    bn.running_var = rng.uniform(0.5, 2.0, cout).astype(np.float32)
    bn.gamma.data = rng.uniform(0.5, 1.5, cout).astype(np.float32)
    bn.beta.data = rng.normal(0.0, 0.5, cout).astype(np.float32)
    if cout > 1:
        bn.gamma.data[0] = 0.0
        bn.gamma.data[-1] = -bn.gamma.data[-1]
    fc = Dense(cout, 10, rng=rng, name="fc")
    fc.quant_slot = "fc"
    model = Sequential([conv, bn, ReLU6(name="act"), GlobalAvgPool2D(), fc])
    apply_policy(model, QuantizationPolicy(
        {"conv": case["conv_bits"], "fc": case["fc_bits"]}))
    x = rng.normal(size=(case["images"], size, size, c)).astype(np.float32)
    calibrate(model, x)
    model.set_training(False)
    return compile_model(model, size, name="drawn"), x


def _check_layout(stage):
    """The einsum's inner loop runs along the longer of K and N."""
    if stage.kind == "conv":
        k = stage.weight.shape[0]
        depth, width = stage.in_shape[2] * k * k, stage.out_shape[2]
    else:
        depth, width = stage.weight.shape
    assert stage.w2d.flags.c_contiguous
    if width >= depth:
        assert stage.contraction == "mk,kn->mn"
        assert stage.w2d.shape == (depth, width)
    else:
        assert stage.contraction == "mk,nk->mn"
        assert stage.w2d.shape == (width, depth)


@given(case=cases)
@settings(max_examples=200, deadline=None)
def test_step_equals_run_stage(case):
    rng = np.random.default_rng(case["seed"])
    program, x = _program(case, rng)
    kinds = [stage.kind for stage in program.stages]
    assert kinds == ["dw" if case["depthwise"] else "conv", "gap", "dense"]
    for stage in program.stages:
        if stage.kind in ("conv", "dense"):
            _check_layout(stage)
    inputs, saved = _reference_inputs(program, x)
    n = x.shape[0]
    for executor, images in ((ArenaExecutor(program, 1), 1),
                             (ArenaExecutor(program, n + 3), n)):
        for index, stage in enumerate(program.stages):
            codes = inputs[index][:images]
            expected = program.run_stage(index, codes, {})
            got = executor.step(codes, index, index + 1, saved)
            np.testing.assert_array_equal(
                got, expected, err_msg=f"{stage.name} at {images} images")
