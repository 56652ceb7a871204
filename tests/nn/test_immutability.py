"""Layers never write into the arrays they are given.

The training kernels compute in place wherever that saves a pass, but only
into arrays they allocated in the same call: an input or an incoming
gradient is also cached by, or is the output of, another layer, so a write
into one would corrupt that layer's backward.  Each case runs one layer's
``forward`` and ``backward`` and requires that ``x``, ``grad`` and the
returned output keep their bytes, in training and inference, with and
without quantizers, over the three layouts of ``test_layer_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv import Conv2D, DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6

from .test_layer_oracle import LAYOUTS, _attach_quantizers, _layout, _values


def _build(kind, case, rng):
    """The layer ``kind`` for an ``(n, h, w, c)`` input."""
    c, k, padding = case["c"], case["kernel"], case["padding"]
    if kind == "bn":
        return BatchNorm2D(c)
    if kind == "relu6":
        return ReLU6()
    if kind.startswith("dwconv"):
        return DepthwiseConv2D(c, k, int(kind[-1]), padding, rng=rng)
    if kind == "conv_1x1":
        return Conv2D(c, case["c_out"], 1, case["stride"], rng=rng)
    if kind == "conv_kxk":
        return Conv2D(c, case["c_out"], k, case["stride"], padding, rng=rng)
    if kind == "dense":
        return Dense(c, case["c_out"], rng=rng)
    return GlobalAvgPool2D()


def _arrange(values, kind):
    """``values`` in the memory layout ``kind``; 2-D arrays go through it
    as ``(N, 1, 1, D)``, which gives them the same three layouts."""
    if values.ndim == 2:
        n, d = values.shape
        return _layout(values.reshape(n, 1, 1, d), kind).reshape(n, d)
    return _layout(values, kind)


KINDS = ("bn", "relu6", "dwconv_s1", "dwconv_s2", "conv_1x1",
         "conv_kxk", "dense", "gap")

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 3), "h": st.integers(1, 8), "w": st.integers(1, 8),
    "c": st.integers(1, 8), "c_out": st.integers(1, 6),
    "kernel": st.integers(2, 5), "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from(["same", "valid"]),
    "quantized": st.booleans(),
    "training": st.booleans(),
    "x_layout": st.sampled_from(LAYOUTS),
    "grad_layout": st.sampled_from(LAYOUTS),
})


@pytest.mark.parametrize("kind", KINDS)
@given(case=cases)
@settings(max_examples=60, deadline=None)
def test_forward_and_backward_leave_their_arguments_alone(kind, case):
    rng = np.random.default_rng(case["seed"])
    layer = _build(kind, case, rng)
    layer.training = case["training"]
    h, w = case["h"], case["w"]
    if case["padding"] == "valid":
        h, w = max(h, case["kernel"]), max(w, case["kernel"])
    shape = (case["n"], case["c"]) if kind == "dense" else (
        case["n"], h, w, case["c"])
    x = _arrange(_values(rng, shape, signed_zeros=True), case["x_layout"])
    if case["quantized"] and hasattr(layer, "weight_quantizer"):
        _attach_quantizers(layer, 4, 8)
        layer.forward(x)   # calibrate, then fake-quantize
        layer.input_quantizer.freeze()
    x_bytes = x.tobytes()
    out = layer.forward(x)
    assert x.tobytes() == x_bytes
    out_bytes = out.tobytes()
    grad = _arrange(_values(rng, out.shape, signed_zeros=True),
                    case["grad_layout"])
    grad_bytes = grad.tobytes()
    layer.backward(grad)
    assert grad.tobytes() == grad_bytes
    assert x.tobytes() == x_bytes
    assert out.tobytes() == out_bytes
