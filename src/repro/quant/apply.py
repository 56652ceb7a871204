"""Attaching quantizers to a model, PTQ calibration, and removal.

Workflow (mirroring steps (3) of Fig. 1 in the paper):

1. :func:`apply_policy` attaches a :class:`WeightQuantizer` (bitwidth from
   the policy, per output channel) and an INT8 :class:`ActivationQuantizer`
   to every quantizable layer.
2. :func:`calibrate` runs calibration batches through the model so the
   activation observers see realistic ranges, then freezes them.  After
   this, evaluating the model *is* post-training quantization (PTQ).
3. Optionally, training the calibrated model is quantization-aware
   fine-tuning (QAFT) — see :mod:`repro.quant.qaft`.

Layers are matched to policy slots through their ``quant_slot`` attribute,
set by the model builder (:mod:`repro.space.builder`).  Repeated blocks share
a slot, so one policy covers every architecture in the search space.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..nn.conv import Conv2D, DepthwiseConv2D
from ..nn.layers import Dense
from ..nn.module import Module
from ..nn.network import Sequential
from ..obs.trace import get_recorder
from .observers import make_observer
from .policy import QuantizationPolicy
from .quantizers import ActivationQuantizer, WeightQuantizer

QuantizableLayer = Union[Conv2D, DepthwiseConv2D, Dense]

ACTIVATION_BITS = 8
BIAS_BITS = 32


def quantizable_layers(model: Module) -> List[QuantizableLayer]:
    """All weight-bearing layers of a model, in execution order."""
    return [m for m in model.modules()
            if isinstance(m, (Conv2D, DepthwiseConv2D, Dense))]


def apply_policy(model: Module, policy: QuantizationPolicy,
                 activation_bits: int = ACTIVATION_BITS,
                 observer_kind: str = "minmax") -> List[QuantizableLayer]:
    """Attach fake quantizers to every quantizable layer per ``policy``.

    Returns the layers that received quantizers.  Raises ``KeyError`` if a
    layer's ``quant_slot`` is missing from the policy, and ``ValueError``
    if a layer has no ``quant_slot`` tag at all (models must be built by
    the search-space builder or tagged manually).
    """
    layers = quantizable_layers(model)
    if not layers:
        raise ValueError("model has no quantizable layers")
    for layer in layers:
        slot = getattr(layer, "quant_slot", None)
        if slot is None:
            raise ValueError(
                f"layer {layer.name!r} has no quant_slot tag; tag it or "
                "build the model via repro.space.builder")
        bits = policy.bits_for(slot)
        layer.weight_quantizer = WeightQuantizer(
            bits, channel_axis=layer.weight_channel_axis)
        layer.input_quantizer = ActivationQuantizer(
            activation_bits, observer=make_observer(observer_kind))
    return layers


def calibrate(model: Sequential, x: np.ndarray,
              batch_size: int = 128,
              max_batches: Optional[int] = 4) -> None:
    """Run calibration batches through the model, then freeze activations.

    Must be called after :func:`apply_policy`; evaluating the model after
    this call realizes PTQ.
    """
    layers = quantizable_layers(model)
    quantizers = [layer.input_quantizer for layer in layers
                  if layer.input_quantizer is not None]
    if not quantizers:
        raise RuntimeError("no activation quantizers attached; call "
                           "apply_policy first")
    model.set_training(False)
    n_batches = 0
    for start in range(0, x.shape[0], batch_size):
        model.forward(x[start:start + batch_size])
        n_batches += 1
        if max_batches is not None and n_batches >= max_batches:
            break
    for quantizer in quantizers:
        quantizer.freeze()
    recorder = get_recorder()
    if recorder.enabled:
        for quantizer in quantizers:
            scale, zero_point = quantizer.quant_params()
            recorder.observe("ptq.act_scale", scale)
            recorder.observe("ptq.act_zero_point", zero_point)


def remove_quantizers(model: Module) -> None:
    """Detach all quantizers, restoring full-precision behaviour."""
    for layer in quantizable_layers(model):
        layer.weight_quantizer = None
        layer.input_quantizer = None


def is_quantized(model: Module) -> bool:
    """True if any layer currently has a weight quantizer attached."""
    return any(layer.weight_quantizer is not None
               for layer in quantizable_layers(model))
