"""The depthwise-conv and batch-norm kernels match their reference bytes.

Each case runs the production layer and the frozen reference from
:mod:`.layer_oracle` on the same weights, inputs and output gradients, and
requires identical bytes *and* memory layout for every output, input
gradient, parameter gradient and running statistic.  The layouts cover
what training feeds these layers: C-contiguous tensors, the kxk conv's
channel-major output, and cropped views of padded buffers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv import DepthwiseConv2D
from repro.nn.layers import BatchNorm2D
from repro.quant import ActivationQuantizer, WeightQuantizer

from .layer_oracle import OracleBatchNorm2D, OracleDepthwiseConv2D

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


def _values(rng, shape, offset=0.0):
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2) + offset
    x[rng.random(shape) < 0.1] = 0.0
    return x.astype(np.float32)


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
})

bn_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 4), "h": st.integers(1, 11), "w": st.integers(1, 11),
    "c": st.integers(1, 24),
    "training": st.booleans(),
    "x_layout": st.sampled_from(LAYOUTS),
    "grad_layout": st.sampled_from(LAYOUTS),
})


class TestDepthwiseOracle:
    @given(case=dwconv_cases)
    @settings(max_examples=250, deadline=None)
    def test_forward_backward_bytes(self, case):
        k, stride, padding = case["kernel"], case["stride"], case["padding"]
        h, w = case["h"], case["w"]
        if padding == "valid":
            h, w = max(h, k), max(w, k)
        rng = np.random.default_rng(case["seed"])
        layers = []
        for cls in (DepthwiseConv2D, OracleDepthwiseConv2D):
            layer = cls(case["c"], k, stride, padding,
                        rng=np.random.default_rng(case["seed"]))
            _attach_quantizers(layer, case["weight_bits"],
                               case["input_bits"])
            layers.append(layer)
        x = _layout(_values(rng, (case["n"], h, w, case["c"])),
                    case["x_layout"])
        if case["input_bits"]:
            for layer in layers:   # calibrate, then fake-quantize
                layer.forward(x)
                layer.input_quantizer.freeze()
        out, want_out = (layer.forward(x) for layer in layers)
        assert _same(out, want_out)
        grad = _layout(_values(rng, out.shape), case["grad_layout"])
        dx, want_dx = (layer.backward(grad) for layer in layers)
        assert _same(dx, want_dx)
        assert _same(layers[0].weight.grad, layers[1].weight.grad)


class TestBatchNormOracle:
    @given(case=bn_cases)
    @settings(max_examples=250, deadline=None)
    def test_forward_backward_bytes(self, case):
        rng = np.random.default_rng(case["seed"])
        c = case["c"]
        layers = [BatchNorm2D(c), OracleBatchNorm2D(c)]
        running_mean = _values(rng, (c,))
        running_var = rng.uniform(0.2, 3.0, size=c).astype(np.float32)
        gamma = _values(rng, (c,), offset=1.0)
        beta = _values(rng, (c,))
        for layer in layers:
            layer.training = case["training"]
            layer.running_mean = running_mean.copy()
            layer.running_var = running_var.copy()
            layer.gamma.data[...] = gamma
            layer.beta.data[...] = beta
        x = _layout(_values(rng, (case["n"], case["h"], case["w"], c),
                            offset=float(rng.normal())), case["x_layout"])
        out, want_out = (layer.forward(x) for layer in layers)
        assert _same(out, want_out)
        for name in ("running_mean", "running_var"):
            assert _same(getattr(layers[0], name), getattr(layers[1], name))
        grad = _layout(_values(rng, out.shape), case["grad_layout"])
        dx, want_dx = (layer.backward(grad) for layer in layers)
        assert _same(dx, want_dx)
        for name in ("gamma", "beta"):
            assert _same(getattr(layers[0], name).grad,
                         getattr(layers[1], name).grad)

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
