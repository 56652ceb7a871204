"""The training kernels match their reference bytes.

Each case runs the production layer and the frozen reference from
:mod:`.layer_oracle` on the same weights, inputs and output gradients, and
requires identical bytes *and* memory layout for every output, input
gradient, parameter gradient and running statistic.  The layouts cover
what training feeds these layers: C-contiguous tensors, the kxk conv's
channel-major output, and cropped views of padded buffers.  The layers are
the depthwise conv, batch norm, ``ReLU6`` and the activation quantizer's
straight-through mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.conv import DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, ReLU6
from repro.quant import ActivationQuantizer, WeightQuantizer

from .layer_oracle import (OracleActivationQuantizer, OracleBatchNorm2D,
                           OracleDepthwiseConv2D, OracleReLU6, where_mask)

LAYOUTS = ("contiguous", "channel_major", "cropped")


def _layout(x, kind):
    """``x``'s values in the memory layout ``kind``."""
    if kind == "contiguous":
        return np.ascontiguousarray(x)
    if kind == "channel_major":
        return np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(
            1, 2, 3, 0)
    n, h, w, c = x.shape
    buffer = np.zeros((n, h + 2, w + 3, c), dtype=x.dtype)
    buffer[:, 1:h + 1, 2:w + 2] = x
    return buffer[:, 1:h + 1, 2:w + 2]


def _values(rng, shape, offset=0.0, signed_zeros=False):
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2) + offset
    x[rng.random(shape) < 0.1] = 0.0
    if signed_zeros:
        x[rng.random(shape) < 0.3] = -0.0
    return x.astype(np.float32)


#: float32 bit patterns a gradient mask must pass through untouched: -0.0,
#: quiet and signalling NaNs of either sign with payloads, and +-inf
SPECIALS = np.array([0x80000000, 0x7FC00000, 0xFFC00001, 0x7FA00001,
                     0xFF812345, 0x7F800000, 0xFF800000],
                    dtype=np.uint32).view(np.float32)


def _specials(rng, shape):
    """``_values`` with a third of the entries drawn from ``SPECIALS``."""
    g = _values(rng, shape)
    picks = rng.random(shape) < 0.3
    g[picks] = rng.choice(SPECIALS, size=int(picks.sum()))
    return g


def _same(got, want):
    """Identical dtype, shape, strides and bytes."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.strides == want.strides
            and got.tobytes() == want.tobytes())


def _attach_quantizers(layer, weight_bits, input_bits):
    if weight_bits:
        layer.weight_quantizer = WeightQuantizer(
            weight_bits, channel_axis=layer.weight_channel_axis)
    if input_bits:
        layer.input_quantizer = ActivationQuantizer(input_bits)


dwconv_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 4), "h": st.integers(1, 11), "w": st.integers(1, 11),
    "c": st.integers(1, 20), "kernel": st.integers(1, 7),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from(["same", "valid"]),
    "weight_bits": st.sampled_from([0, 4, 8]),
    "input_bits": st.sampled_from([0, 8]),
    "x_layout": st.sampled_from(LAYOUTS),
    "grad_layout": st.sampled_from(LAYOUTS),
    "signed_zeros": st.booleans(),
})

bn_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 4), "h": st.integers(1, 11), "w": st.integers(1, 11),
    "c": st.integers(1, 24),
    "training": st.booleans(),
    "x_layout": st.sampled_from(LAYOUTS),
    "grad_layout": st.sampled_from(LAYOUTS),
})


def _dwconv_case(shape, kernel, stride, x_layout="contiguous",
                 weight_bits=0, input_bits=0, signed_zeros=True):
    n, h, w, c = shape
    return {"seed": n * h * w * c * kernel + stride, "n": n, "h": h, "w": w,
            "c": c, "kernel": kernel, "stride": stride, "padding": "same",
            "weight_bits": weight_bits, "input_bits": input_bits,
            "x_layout": x_layout, "grad_layout": "contiguous",
            "signed_zeros": signed_zeros}


#: depthwise convs a seed-1 ``perfbench`` search trains: input shape,
#: kernel, stride and the input's layout (an expansion-1 block reads the
#: stem's channel-major output), with and without QAFT's quantizers
SEARCH_SHAPES = [
    _dwconv_case(*args, **quant)
    for args in [((32, 12, 12, 35), 6, 1), ((32, 6, 6, 96), 7, 1),
                 ((32, 12, 12, 57), 5, 2), ((32, 6, 6, 64), 7, 2),
                 ((32, 6, 6, 32), 6, 2), ((32, 12, 12, 24), 2, 2),
                 ((32, 12, 12, 1), 6, 1), ((32, 12, 12, 1), 6, 2),
                 ((32, 6, 6, 1), 5, 1),
                 ((32, 12, 12, 6), 7, 1, "channel_major"),
                 ((32, 12, 12, 4), 2, 1, "channel_major")]
    for quant in ({}, {"weight_bits": 4, "input_bits": 8})]

#: one channel at every stride and padding, where numpy would reorder the
#: taps without the zero channel
ONE_CHANNEL = [
    dict(_dwconv_case((n, h, w, 1), k, s, layout), padding=padding)
    for n, h, w, k, s, layout, padding in [
        (2, 7, 5, 3, 1, "contiguous", "same"),
        (1, 9, 9, 7, 2, "cropped", "same"),
        (3, 4, 6, 1, 1, "channel_major", "same"),
        (2, 8, 8, 4, 2, "contiguous", "valid"),
        (1, 1, 1, 5, 1, "contiguous", "same")]]

#: signed zeros everywhere: -0.0 inputs, weights and gradients, and all
#: three at once, which the zero frame of the gather must keep at +0
SIGNED_ZEROS = [
    dict(_dwconv_case((2, 6, 7, 5), k, s), zeros=zeros)
    for k, s in [(3, 1), (4, 2), (7, 1)]
    for zeros in ("x", "weight", "grad", "all")]


def _case_id(case):
    """``32x12x12x35-k6s1-same-contiguous`` plus quantizer bits and zeros."""
    shape = "x".join(str(case[key]) for key in ("n", "h", "w", "c"))
    parts = [shape, f"k{case['kernel']}s{case['stride']}", case["padding"],
             case["x_layout"]]
    if case["weight_bits"] or case["input_bits"]:
        parts.append(f"w{case['weight_bits']}a{case['input_bits']}")
    if case.get("zeros"):
        parts.append(f"neg0-{case['zeros']}")
    return "-".join(parts)


def _check_dwconv(case):
    """Both depthwise layers on one case: identical bytes and layouts."""
    k, stride, padding = case["kernel"], case["stride"], case["padding"]
    h, w = case["h"], case["w"]
    if padding == "valid":
        h, w = max(h, k), max(w, k)
    signed = case["signed_zeros"]
    zeros = case.get("zeros")
    rng = np.random.default_rng(case["seed"])
    layers = []
    for cls in (DepthwiseConv2D, OracleDepthwiseConv2D):
        layer = cls(case["c"], k, stride, padding,
                    rng=np.random.default_rng(case["seed"]))
        _attach_quantizers(layer, case["weight_bits"], case["input_bits"])
        layers.append(layer)
    if signed:
        weight = layers[0].weight.data
        weight[np.random.default_rng(case["seed"]).random(weight.shape)
               < 0.3] = -0.0
    if zeros in ("weight", "all"):
        layers[0].weight.data[...] = -0.0
    layers[1].weight.data[...] = layers[0].weight.data
    x = _values(rng, (case["n"], h, w, case["c"]), signed_zeros=signed)
    if zeros in ("x", "all"):
        x[...] = -0.0
    x = _layout(x, case["x_layout"])
    if case["input_bits"]:
        for layer in layers:   # calibrate, then fake-quantize
            layer.forward(x)
            layer.input_quantizer.freeze()
    out, want_out = (layer.forward(x) for layer in layers)
    assert _same(out, want_out)
    grad = _values(rng, out.shape, signed_zeros=signed)
    if zeros in ("grad", "all"):
        grad[...] = -0.0
    grad = _layout(grad, case["grad_layout"])
    dx, want_dx = (layer.backward(grad) for layer in layers)
    assert _same(dx, want_dx)
    assert _same(layers[0].weight.grad, layers[1].weight.grad)


class TestDepthwiseOracle:
    @given(case=dwconv_cases)
    @settings(max_examples=250, deadline=None)
    def test_forward_backward_bytes(self, case):
        _check_dwconv(case)

    @pytest.mark.parametrize("case", SEARCH_SHAPES, ids=_case_id)
    def test_search_shapes(self, case):
        _check_dwconv(case)

    @pytest.mark.parametrize("case", ONE_CHANNEL, ids=_case_id)
    def test_one_channel(self, case):
        _check_dwconv(case)

    @pytest.mark.parametrize("case", SIGNED_ZEROS, ids=_case_id)
    def test_signed_zeros(self, case):
        _check_dwconv(case)


def _bn_case(shape, training=True, x_layout="contiguous",
             grad_layout="contiguous", zeros=None):
    n, h, w, c = shape
    return {"seed": n * h * w * c + training, "n": n, "h": h, "w": w,
            "c": c, "training": training, "x_layout": x_layout,
            "grad_layout": grad_layout, "zeros": zeros}


#: batch norms a seed-1 ``perfbench`` search trains, on the rows path
BN_SEARCH_SHAPES = [
    _bn_case(shape, training)
    for shape in [(32, 12, 12, 6), (32, 12, 12, 12), (32, 12, 12, 35),
                  (32, 6, 6, 96), (32, 3, 3, 1280)]
    for training in (True, False)]

#: the stem's batch norm, reading the kxk conv's channel-major output
BN_STEM = [_bn_case((32, 12, 12, c), training, "channel_major")
           for c in (4, 6) for training in (True, False)]

#: every pairing of the gradient's layout with the input's, in training:
#: a channel-major gradient over a contiguous or cropped ``x_hat`` is
#: where a ``dx`` built in place would keep the wrong strides
BN_LAYOUT_PAIRS = [_bn_case((3, 5, 7, 6), True, x_layout, grad_layout)
                   for x_layout in LAYOUTS for grad_layout in LAYOUTS]

#: -0.0 in the input, gamma, beta, the gradient, and all four at once
BN_SIGNED_ZEROS = [_bn_case((2, 6, 7, 5), training, zeros=zeros)
                   for zeros in ("x", "gamma", "beta", "grad", "all")
                   for training in (True, False)]

#: a float64 input, whose float64 x_hat the float32 gradient meets: the
#: in-place backward would round what the original kept wide
BN_FLOAT64 = [dict(_bn_case((2, 6, 7, 5), training, x_layout), dtype="f8")
              for training in (True, False)
              for x_layout in ("contiguous", "channel_major")]


def _bn_case_id(case):
    """``32x12x12x35-train-contiguous-contiguous`` plus signed zeros and a
    non-float32 input dtype."""
    shape = "x".join(str(case[key]) for key in ("n", "h", "w", "c"))
    parts = [shape, "train" if case["training"] else "infer",
             case["x_layout"], case["grad_layout"]]
    if case.get("zeros"):
        parts.append(f"neg0-{case['zeros']}")
    if case.get("dtype"):
        parts.append(case["dtype"])
    return "-".join(parts)


def _check_bn(case):
    """Both batch norms on one case: identical bytes and layouts."""
    zeros = case.get("zeros")
    signed = zeros is not None
    rng = np.random.default_rng(case["seed"])
    c = case["c"]
    layers = [BatchNorm2D(c), OracleBatchNorm2D(c)]
    running_mean = _values(rng, (c,))
    running_var = rng.uniform(0.2, 3.0, size=c).astype(np.float32)
    gamma = _values(rng, (c,), offset=1.0, signed_zeros=signed)
    beta = _values(rng, (c,), signed_zeros=signed)
    if zeros in ("gamma", "all"):
        gamma[...] = -0.0
    if zeros in ("beta", "all"):
        beta[...] = -0.0
    for layer in layers:
        layer.training = case["training"]
        layer.running_mean = running_mean.copy()
        layer.running_var = running_var.copy()
        layer.gamma.data[...] = gamma
        layer.beta.data[...] = beta
    x = _values(rng, (case["n"], case["h"], case["w"], c),
                offset=float(rng.normal()), signed_zeros=signed)
    if zeros in ("x", "all"):
        x[...] = -0.0
    x = _layout(x.astype(case.get("dtype", "f4")), case["x_layout"])
    out, want_out = (layer.forward(x) for layer in layers)
    assert _same(out, want_out)
    for name in ("running_mean", "running_var"):
        assert _same(getattr(layers[0], name), getattr(layers[1], name))
    grad = _values(rng, out.shape, signed_zeros=signed)
    if zeros in ("grad", "all"):
        grad[...] = -0.0
    grad = _layout(grad, case["grad_layout"])
    dx, want_dx = (layer.backward(grad) for layer in layers)
    assert _same(dx, want_dx)
    for name in ("gamma", "beta"):
        assert _same(getattr(layers[0], name).grad,
                     getattr(layers[1], name).grad)


class TestBatchNormOracle:
    @given(case=bn_cases)
    @settings(max_examples=250, deadline=None)
    def test_forward_backward_bytes(self, case):
        _check_bn(case)

    @pytest.mark.parametrize("case", BN_SEARCH_SHAPES, ids=_bn_case_id)
    def test_search_shapes(self, case):
        _check_bn(case)

    @pytest.mark.parametrize("case", BN_STEM, ids=_bn_case_id)
    def test_stem_channel_major(self, case):
        _check_bn(case)

    @pytest.mark.parametrize("case", BN_LAYOUT_PAIRS, ids=_bn_case_id)
    def test_layout_pairs(self, case):
        _check_bn(case)

    @pytest.mark.parametrize("case", BN_SIGNED_ZEROS, ids=_bn_case_id)
    def test_signed_zeros(self, case):
        _check_bn(case)

    @pytest.mark.parametrize("case", BN_FLOAT64, ids=_bn_case_id)
    def test_float64_input(self, case):
        _check_bn(case)

    def test_dead_channel_grad_keeps_its_sign_of_zero(self):
        """A channel whose output grad is all zero gets the oracle's zeros."""
        rng = np.random.default_rng(5)
        x = _values(rng, (4, 6, 6, 3))
        grad = _values(rng, (4, 6, 6, 3))
        grad[..., 1] = 0.0
        layers = [BatchNorm2D(3), OracleBatchNorm2D(3)]
        for layer in layers:
            layer.training = True
            layer.forward(x)
        dx, want_dx = (layer.backward(grad) for layer in layers)
        assert _same(dx, want_dx)
        assert _same(layers[0].gamma.grad, layers[1].gamma.grad)


mask_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 4), "h": st.integers(1, 9), "w": st.integers(1, 9),
    "c": st.integers(1, 12),
    "x_layout": st.sampled_from(LAYOUTS),
    "grad_layout": st.sampled_from(LAYOUTS),
})


def _mask_inputs(case):
    """An input spanning both ReLU6 edges and a gradient of specials."""
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["h"], case["w"], case["c"])
    x = rng.uniform(-3.0, 9.0, size=shape).astype(np.float32)
    picks = rng.random(shape) < 0.2
    x[picks] = rng.choice(np.array([0.0, -0.0, 6.0, np.nan],
                                   dtype=np.float32), size=int(picks.sum()))
    return (_layout(x, case["x_layout"]),
            _layout(_specials(rng, shape), case["grad_layout"]))


class TestMaskOracle:
    """``F.masked`` against ``np.where`` over every pair of the layouts
    the mask's source and the gradient take, with -0.0, NaN and inf."""

    @given(case=mask_cases)
    @settings(max_examples=200, deadline=None)
    def test_masked_matches_where(self, case):
        x, grad = _mask_inputs(case)
        for mask in (x > 0, (x > 0) & (x < 6), (x >= -1) & (x <= 2),
                     _layout(x > 0, case["x_layout"])):
            assert _same(F.masked(mask, grad), where_mask(mask, grad))
        # a mask taken from the masked array itself, in its own layout
        assert _same(F.masked(grad > 0, grad), where_mask(grad > 0, grad))

    @given(case=mask_cases)
    @settings(max_examples=200, deadline=None)
    def test_relu6_bytes(self, case):
        x, grad = _mask_inputs(case)
        layers = [ReLU6(), OracleReLU6()]
        out, want_out = (layer.forward(x) for layer in layers)
        assert _same(out, want_out)
        dx, want_dx = (layer.backward(grad) for layer in layers)
        assert _same(dx, want_dx)

    @given(case=mask_cases)
    @settings(max_examples=200, deadline=None)
    def test_ste_bytes(self, case):
        x, grad = _mask_inputs(case)
        quantizers = [ActivationQuantizer(8), OracleActivationQuantizer(8)]
        calibration = np.linspace(-1.5, 4.0, 16, dtype=np.float32)
        for quantizer in quantizers:
            quantizer.forward(calibration)
            quantizer.freeze()
        out, want_out = (q.forward(x) for q in quantizers)
        assert _same(out, want_out)
        dx, want_dx = (q.backward(grad) for q in quantizers)
        assert _same(dx, want_dx)
