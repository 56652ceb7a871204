"""Deployment export: pack a quantized model into an actual binary artifact.

The paper's size objective is "model size on disk [kB]".  This module makes
that literal: it serializes a calibrated, quantized model into a flat
binary container — per-channel integer weight codes bit-packed at their
policy bitwidth, float biases, float64 scales and activation calibration
ranges — and reads it back into an equivalent model.  The container's real
byte length matches the analytic accounting of :mod:`repro.quant.size` (up
to per-layer padding), which the test suite asserts.

Version 2 of the container is *lossless* with respect to the fake-quant
simulation: scales and activation ranges are stored at float64 (exactly
the precision the quantizers compute with) and biases as raw float32, so
:func:`rebuild_into` reconstructs a model whose logits are bit-identical
to the pre-export quantized model.  This is what lets the integer
inference engine (:mod:`repro.infer`) compile a container instead of a
live model.  Version 1 (float32 scales, fixed-point biases) is no longer
produced or read; the container is an internal format with no persisted
artifacts to migrate.

Container layout (little-endian):

    magic  b"BOMP"            4 bytes
    version u32               2
    n_layers u32
    per layer:
        name_len u32, name bytes (utf-8)
        bits u8, channel_axis u8, ndim u8, flags u8 (bit 0: has bias)
        shape u32 x ndim
        n_scales u32, scales f64 x n_scales
        act_bits u32 (0 if the input quantizer is absent/uncalibrated)
        act_range f64 x 2 (calibrated lo, hi; NaN if unquantized input)
        bias_len u32, bias f32 x bias_len (empty when the layer has none)
        packed_len u32, packed weight codes (bitstream, byte aligned)
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.module import FLOAT, Module
from .apply import quantizable_layers
from .quantizers import ActivationQuantizer, FixedScaleWeightQuantizer

MAGIC = b"BOMP"
VERSION = 2

#: layer flag bits
_FLAG_HAS_BIAS = 1


def pack_bits(codes: np.ndarray, bits: int) -> bytes:
    """Pack unsigned integer codes (< 2**bits) into a dense bitstream.

    Bit ``j`` of code ``i`` lands at bitstream position ``i*bits + j``,
    LSB-first within each byte (``np.packbits(bitorder="little")``
    convention).  The stream is padded with zero bits to a whole byte.
    """
    if bits < 1 or bits > 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")
    codes = np.asarray(codes, dtype=np.uint64).ravel()
    if codes.size == 0:
        return b""
    if int(codes.max()) >= (1 << bits):
        raise ValueError("code out of range for bitwidth")
    shifts = np.arange(bits, dtype=np.uint64)
    bit_matrix = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little").tobytes()


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`."""
    if bits < 1 or bits > 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                        bitorder="little")
    if raw.size < count * bits:
        raise ValueError(
            f"bitstream holds {raw.size} bits, need {count * bits}")
    bit_matrix = raw[:count * bits].reshape(count, bits).astype(np.uint64)
    weights = np.left_shift(np.uint64(1), np.arange(bits, dtype=np.uint64))
    return (bit_matrix * weights).sum(axis=1)


@dataclass
class ExportedLayer:
    """One layer's deployed payload."""

    name: str
    bits: int
    channel_axis: int
    shape: Tuple[int, ...]
    scales: np.ndarray          # float64, one per output channel
    act_bits: int               # input-quantizer bitwidth (0 if absent)
    act_range: Optional[Tuple[float, float]]  # calibrated (lo, hi)
    bias: np.ndarray            # float32 (empty if the layer has none)
    codes: np.ndarray           # unsigned weight codes (offset-binary)

    @property
    def activation(self) -> Optional[Tuple[float, float]]:
        """Input-quantizer ``(scale, zero_point)``, or None if unquantized.

        Computed from the stored calibration range with exactly the
        arithmetic of :meth:`ActivationQuantizer.quant_params`.
        """
        if self.act_range is None:
            return None
        lo, hi = self.act_range
        n_levels = 2 ** self.act_bits - 1
        scale = (hi - lo) / n_levels
        return scale, float(round(-lo / scale))

    def signed_codes(self) -> np.ndarray:
        """Weight codes recentred to the symmetric grid (int64)."""
        qmax = 2 ** (self.bits - 1) - 1
        return self.codes.astype(np.int64) - qmax

    def dequantized_weights(self) -> np.ndarray:
        """Reconstruct the float weight tensor from codes and scales."""
        scale_shape = [1] * len(self.shape)
        scale_shape[self.channel_axis] = -1
        scales = self.scales.reshape(scale_shape)
        return (self.signed_codes().reshape(self.shape)
                * scales).astype(FLOAT)


def export_model(model: Module) -> bytes:
    """Serialize a quantized model's deployable payload to bytes.

    Requires weight quantizers to be attached (activation quantizers are
    optional; calibrated ones are stored, others recorded as absent).
    """
    layers = quantizable_layers(model)
    if not any(layer.weight_quantizer is not None for layer in layers):
        raise ValueError("export requires an (at least partially) "
                         "quantized model; call apply_policy first")
    stream = io.BytesIO()
    stream.write(MAGIC)
    stream.write(struct.pack("<II", VERSION, len(layers)))
    for layer in layers:
        _write_layer(stream, layer)
    return stream.getvalue()


def _write_layer(stream: io.BytesIO, layer) -> None:
    quantizer = layer.weight_quantizer
    bits = quantizer.bits if quantizer is not None else 32
    axis = layer.weight_channel_axis
    weights = layer.weight.data
    name = layer.name.encode()
    has_bias = getattr(layer, "bias", None) is not None
    stream.write(struct.pack("<I", len(name)))
    stream.write(name)
    stream.write(struct.pack("<BBBB", bits, axis, weights.ndim,
                             _FLAG_HAS_BIAS if has_bias else 0))
    stream.write(struct.pack(f"<{weights.ndim}I", *weights.shape))

    if quantizer is not None and bits < 32:
        # the fake quantizer's own levels and (widened) scales, so codes *
        # scales reproduces the fake-quantized weights bit for bit
        scales = np.asarray(quantizer.scale_for(weights), dtype=np.float64)
        qmax = 2 ** (bits - 1) - 1
        codes = (quantizer.levels(weights) + qmax).astype(
            np.uint64)                              # offset-binary
        packed = pack_bits(codes, bits)
    else:
        scales = np.ones(weights.shape[axis], dtype=np.float64)
        packed = weights.astype("<f4").tobytes()
    stream.write(struct.pack("<I", scales.size))
    stream.write(scales.astype("<f8").tobytes())

    act = layer.input_quantizer
    if act is not None and act.frozen:
        lo, hi = act._range
        stream.write(struct.pack("<I", act.bits))
        stream.write(struct.pack("<dd", float(lo), float(hi)))
    else:
        stream.write(struct.pack("<I", 0))
        stream.write(struct.pack("<dd", float("nan"), float("nan")))

    bias = (layer.bias.data.astype("<f4") if has_bias
            else np.empty(0, dtype="<f4"))
    stream.write(struct.pack("<I", bias.size))
    stream.write(bias.tobytes())

    stream.write(struct.pack("<I", len(packed)))
    stream.write(packed)


def import_model(data: bytes) -> List[ExportedLayer]:
    """Parse an exported container back into per-layer payloads."""
    stream = io.BytesIO(data)
    if stream.read(4) != MAGIC:
        raise ValueError("not a BOMP container")
    version, n_layers = struct.unpack("<II", stream.read(8))
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    layers = []
    for _ in range(n_layers):
        layers.append(_read_layer(stream))
    return layers


def _read_layer(stream: io.BytesIO) -> ExportedLayer:
    (name_len,) = struct.unpack("<I", stream.read(4))
    name = stream.read(name_len).decode()
    bits, axis, ndim, _flags = struct.unpack("<BBBB", stream.read(4))
    shape = struct.unpack(f"<{ndim}I", stream.read(4 * ndim))
    (n_scales,) = struct.unpack("<I", stream.read(4))
    scales = np.frombuffer(stream.read(8 * n_scales), dtype="<f8").copy()
    (act_bits,) = struct.unpack("<I", stream.read(4))
    lo, hi = struct.unpack("<dd", stream.read(16))
    act_range = None
    if act_bits and not (np.isnan(lo) or np.isnan(hi)):
        act_range = (lo, hi)
    (bias_len,) = struct.unpack("<I", stream.read(4))
    bias = np.frombuffer(stream.read(4 * bias_len), dtype="<f4").copy()
    (packed_len,) = struct.unpack("<I", stream.read(4))
    packed = stream.read(packed_len)
    count = int(np.prod(shape))
    if bits < 32:
        codes = unpack_bits(packed, bits, count)
    else:
        codes = np.frombuffer(packed, dtype="<f4").astype(np.uint64)
    return ExportedLayer(name=name, bits=bits, channel_axis=axis,
                         shape=tuple(shape), scales=scales,
                         act_bits=act_bits, act_range=act_range,
                         bias=bias, codes=codes)


def rebuild_into(model: Module, exported) -> Module:
    """Load a container's payload into an architecture-matching model.

    ``model`` must have the same quantizable-layer sequence the container
    was exported from (e.g. rebuilt from the same genome).  Each layer
    gets its latent weights replaced by the dequantized export, a
    :class:`FixedScaleWeightQuantizer` pinned to the stored float64 scales
    (idempotent on the grid, so re-quantizing reproduces the exact codes),
    its bias restored, and a frozen :class:`ActivationQuantizer` carrying
    the stored calibration range.  The rebuilt model's logits are
    bit-identical to the pre-export quantized model's.

    ``exported`` is either container bytes or the list returned by
    :func:`import_model`.  Returns ``model``.
    """
    if isinstance(exported, (bytes, bytearray)):
        exported = import_model(bytes(exported))
    layers = quantizable_layers(model)
    if len(layers) != len(exported):
        raise ValueError(
            f"model has {len(layers)} quantizable layers, container has "
            f"{len(exported)}")
    for layer, payload in zip(layers, exported):
        if layer.name != payload.name:
            raise ValueError(
                f"layer order mismatch: model {layer.name!r} vs "
                f"container {payload.name!r}")
        if tuple(layer.weight.data.shape) != payload.shape:
            raise ValueError(
                f"{layer.name}: weight shape {layer.weight.data.shape} "
                f"!= container {payload.shape}")
        if payload.bits < 32:
            layer.weight.data = payload.dequantized_weights()
            layer.weight_quantizer = FixedScaleWeightQuantizer(
                payload.bits, channel_axis=payload.channel_axis,
                scales=payload.scales)
        else:
            layer.weight.data = payload.dequantized_weights()
            layer.weight_quantizer = None
        if (payload.bias.size > 0) != (getattr(layer, "bias", None)
                                       is not None):
            raise ValueError(
                f"{layer.name}: bias presence mismatch between model and "
                "container")
        if payload.bias.size:
            layer.bias.data = payload.bias.astype(FLOAT)
        if payload.act_range is not None:
            quantizer = ActivationQuantizer(payload.act_bits)
            quantizer._range = payload.act_range
            quantizer.calibrating = False
            layer.input_quantizer = quantizer
        else:
            layer.input_quantizer = None
    return model


def verify_roundtrip(model: Module, data: bytes,
                     atol: float = 1e-5) -> Dict[str, float]:
    """Check the exported container reconstructs the quantized weights.

    Returns the per-layer max abs error between the model's fake-quantized
    weights and the container's dequantized weights; raises on mismatch.
    With the version-2 container the errors are exactly zero.
    """
    exported = {layer.name: layer for layer in import_model(data)}
    errors: Dict[str, float] = {}
    for layer in quantizable_layers(model):
        payload = exported[layer.name]
        if layer.weight_quantizer is None or payload.bits >= 32:
            continue
        reference = layer.weight_quantizer.forward(layer.weight.data)
        reconstructed = payload.dequantized_weights()
        error = float(np.abs(reference - reconstructed).max())
        errors[layer.name] = error
        if error > atol:
            raise ValueError(
                f"{layer.name}: roundtrip error {error} exceeds {atol}")
    return errors


def exported_size_kb(data: bytes) -> float:
    """Real artifact size in kB (1024 bytes)."""
    return len(data) / 1024
