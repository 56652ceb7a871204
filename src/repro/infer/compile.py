"""Compile a quantized model into an integer-only stage program.

The compiler walks a :class:`~repro.nn.network.Sequential` as
:func:`~repro.space.builder.build_model` emits it — a conv stem, inverted
bottlenecks, a 1x1 head conv, global average pooling and a Dense
classifier — or with bare top-level conv [+ BN] [+ ReLU6] layers in
place of the blocks.  It fuses each conv/BN/activation triplet into one
*stage*, so a program holds only ``conv``, ``dw``, ``gap`` and ``dense``
stages, and precomputes everything the integer engine needs so the hot
path touches no floats:

- weight tensors as signed integer codes with the batch-norm *sign*
  folded in (per-channel symmetric quantization commutes with a positive
  per-channel rescale, so folding ``w' = w * bn_scale`` keeps the exact
  same codes up to sign and leaves all scales positive);
- the BN shift (plus any float bias) as an INT32 accumulator-domain bias
  ``round(shift / (s_x * s_eff))``;
- the gemmlowp fixed-point requantization multiplier per output channel,
  ``M_c = s_x * s_eff_c / s_y`` decomposed by
  :func:`~repro.infer.requant.quantize_multiplier`;
- the fused activation as a clamp on output *codes*: ReLU6 becomes
  ``[zp_y, zp_y + round(6/s_y)]`` intersected with the code range;
- residual adds (MobileNetV2 inverted bottlenecks) as a second
  requantization of the saved block-input codes into the output grid.

Dead BN channels (``bn_scale == 0``) zero the weight codes and substitute
``s_eff := s_y / s_x`` so the multiplier is exactly 1 and the channel
reduces to the constant ``round(shift / s_y)`` — no division by zero, no
overflow.

A stage that feeds the global average pool defers the code-range clamp
``[0, n_levels]`` to *after* the pool: the reference model quantizes the
pooled tensor, not the per-pixel one, so clamping early would clip mass
the float path keeps.  (Its activation clamp still applies per pixel, as
in the float model.)

Output grids come from the *next* quantized consumer's input quantizer —
the only calibrated ranges in the model — which is also exactly what the
parity harness compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.blocks import ConvBNReLU, InvertedBottleneck
from ..nn.conv import Conv2D, DepthwiseConv2D
from ..nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from ..nn.network import Sequential
from .requant import RequantPlan, quantize_multipliers

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1


class CompileError(ValueError):
    """The model cannot be lowered to an integer program."""


@dataclass(frozen=True)
class Grid:
    """One affine activation grid: ``value = (code - zero_point) * scale``."""

    scale: float
    zero_point: int
    n_levels: int


@dataclass(frozen=True, eq=False)
class Stage:
    """One compiled op: all-integer parameters plus report metadata.

    Immutable once built: the fused execution operands (``w2d``,
    ``contraction``, ``taps``, ``bias_fused``, ``rq``, ``res_rq``) are
    derived from the reference fields at construction, and every array
    is read-only, so one stage can be shared by any number of executors
    and threads.
    """

    name: str
    kind: str                     # conv | dw | gap | dense
    in_shape: Tuple[int, ...]     # per-image, channels-last
    out_shape: Tuple[int, ...]
    macs: int = 0
    #: rounding steps this stage performs relative to the float reference
    #: (requantize, bias fold, residual, GAP mean) — the parity budget
    round_steps: int = 0
    # -- conv/dw/dense ------------------------------------------------------
    weight: Optional[np.ndarray] = None    # integer codes, BN sign folded
    stride: int = 1
    padding: str = "same"
    in_zp: int = 0
    mult: Optional[np.ndarray] = None      # int64 mantissas, per out channel
    shift: Optional[np.ndarray] = None     # int64 exponents
    bias_acc: Optional[np.ndarray] = None  # int32 accumulator-domain bias
    out_zp: int = 0
    clamp_lo: int = 0
    clamp_hi: int = 0
    save_input: bool = False               # a later stage adds this input
    residual_from: Optional[int] = None    # stage index whose input to add
    res_mult: int = 0
    res_shift: int = 0
    res_zp: int = 0
    # -- final dense output dequantization (off the hot path) ---------------
    out_scale: Optional[np.ndarray] = None  # float64 s_x * s_w per class
    out_bias: Optional[np.ndarray] = None   # float32
    # -- report metadata -----------------------------------------------------
    weight_bits: int = 0
    weight_count: int = 0
    out_channels: int = 0
    # -- fused execution operands (derived at construction) ------------------
    #: contraction-ready 2-D weight (conv/dense), laid out so that the
    #: einsum's inner loop runs along the longer of K = c*kh*kw and
    #: N = cout: ``(K, N)`` when N >= K, else its contiguous transpose
    w2d: Optional[np.ndarray] = field(default=None, init=False)
    #: the ``np.einsum`` subscripts contracting im2col rows with ``w2d``:
    #: ``"mk,kn->mn"`` or ``"mk,nk->mn"``
    contraction: Optional[str] = field(default=None, init=False)
    #: depthwise weight tiled along one output row, ``(k, k, span*c)``
    #: with ``span = (wo - 1) * stride + 1``: the einsum operand that
    #: multiplies every column of a tap's row view at once (dw)
    taps: Optional[np.ndarray] = field(default=None, init=False)
    #: ``bias_acc - in_zp * colsum(weight)``: folding the input zero point
    #: into the bias lets the engine contract *raw* codes (padding with
    #: ``in_zp``) instead of shifting every activation tensor first —
    #: exactly equal mod 2**32, i.e. bit-identical under int32 arithmetic
    bias_fused: Optional[np.ndarray] = field(default=None, init=False)
    #: fused requantization operands for the output multiplier set
    rq: Optional[RequantPlan] = field(default=None, init=False)
    #: fused requantization operands for the residual multiplier
    res_rq: Optional[RequantPlan] = field(default=None, init=False)

    def __post_init__(self) -> None:
        derived = {}
        if self.mult is not None:
            derived["rq"] = RequantPlan.build(self.mult, self.shift)
        if self.residual_from is not None:
            derived["res_rq"] = RequantPlan.build(self.res_mult,
                                                  self.res_shift)
        w = self.weight
        if w is not None:
            if self.kind == "dw":
                span = (self.out_shape[1] - 1) * self.stride + 1
                derived["taps"] = np.tile(w, (1, 1, span)).astype(
                    np.int32, copy=False)
                colsum = w.sum(axis=(0, 1), dtype=np.int64)
            else:
                # im2col row order (c, kh, kw); a 1x1 kernel is just (c, cout)
                kn = (w.transpose(2, 0, 1, 3).reshape(-1, w.shape[3])
                      if self.kind == "conv" else w)
                wide = kn.shape[1] >= kn.shape[0]          # N >= K
                derived["w2d"] = np.ascontiguousarray(kn if wide else kn.T,
                                                      dtype=np.int32)
                derived["contraction"] = "mk,kn->mn" if wide else "mk,nk->mn"
                colsum = kn.sum(axis=0, dtype=np.int64)
            bias = (self.bias_acc.astype(np.int64)
                    if self.bias_acc is not None
                    else np.zeros_like(colsum))
            derived["bias_fused"] = (bias - np.int64(self.in_zp)
                                     * colsum).astype(np.int32)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        arrays = [self.weight, self.mult, self.shift, self.bias_acc,
                  self.out_scale, self.out_bias, self.w2d, self.taps,
                  self.bias_fused]
        for plan in (self.rq, self.res_rq):
            if plan is not None:
                arrays += [plan.q, plan.round1, plan.shift1, plan.sneg,
                           plan.half]
        for array in arrays:
            if isinstance(array, np.ndarray):   # numpy scalars are immutable
                array.flags.writeable = False


# -- intermediate units -------------------------------------------------------
@dataclass
class _ConvUnit:
    layer: object                 # Conv2D | DepthwiseConv2D
    bn: Optional[BatchNorm2D]
    relu6: bool
    residual_src: Optional[int] = None  # unit index whose input is added


class _GapUnit:
    """The global average pool (no parameters)."""


@dataclass
class _DenseUnit:
    layer: Dense


def _flatten_units(model: Sequential) -> List[object]:
    items = list(model.layers)
    units: List[object] = []
    i = 0
    while i < len(items):
        layer = items[i]
        if isinstance(layer, ConvBNReLU):
            units.append(_ConvUnit(layer.conv, layer.bn, relu6=True))
            i += 1
        elif isinstance(layer, InvertedBottleneck):
            start = len(units)
            if layer.expand is not None:
                units.append(_ConvUnit(layer.expand.conv, layer.expand.bn,
                                       relu6=True))
            units.append(_ConvUnit(layer.depthwise, layer.dw_bn, relu6=True))
            project = _ConvUnit(layer.project, layer.project_bn,
                                relu6=False)
            if layer.use_residual:
                project.residual_src = start
            units.append(project)
            i += 1
        elif isinstance(layer, (Conv2D, DepthwiseConv2D)):
            # peephole: bare conv [+ BN] [+ ReLU6] at the top level
            bn = None
            j = i + 1
            if j < len(items) and isinstance(items[j], BatchNorm2D):
                bn = items[j]
                j += 1
            relu6 = j < len(items) and isinstance(items[j], ReLU6)
            units.append(_ConvUnit(layer, bn, relu6))
            i = j + 1 if relu6 else j
        elif isinstance(layer, GlobalAvgPool2D):
            units.append(_GapUnit())
            i += 1
        elif isinstance(layer, Dense):
            if i != len(items) - 1:
                raise CompileError(
                    "only a final classifier Dense is supported")
            units.append(_DenseUnit(layer))
            i += 1
        else:
            raise CompileError(
                f"{layer.name}: unsupported layer for integer compilation "
                f"({type(layer).__name__})")
    if not units or not isinstance(units[-1], _DenseUnit):
        raise CompileError("network must end in a Dense classifier")
    return units


def _grid_of(layer) -> Grid:
    quantizer = layer.input_quantizer
    if quantizer is None or not quantizer.frozen:
        raise CompileError(
            f"{layer.name}: input quantizer missing or uncalibrated; "
            "run apply_policy + calibrate first")
    scale, zero_point = quantizer.quant_params()
    if not scale > 0:
        raise CompileError(f"{layer.name}: degenerate activation scale")
    return Grid(float(scale), int(zero_point), 2 ** quantizer.bits - 1)


def _weight_codes(layer) -> Tuple[np.ndarray, np.ndarray, int]:
    """(integer codes, float64 per-channel scales, bits) of a layer."""
    quantizer = layer.weight_quantizer
    if quantizer is None:
        raise CompileError(f"{layer.name}: no weight quantizer attached")
    if quantizer.bits > 8:
        raise CompileError(
            f"{layer.name}: {quantizer.bits}-bit weights exceed the "
            "engine's 8-bit integer kernels")
    weights = layer.weight.data
    scales = np.asarray(quantizer.scale_for(weights), dtype=np.float64)
    codes = quantizer.levels(weights).astype(np.int32)
    return codes, scales, quantizer.bits


def _conv_stage(unit: _ConvUnit, grid_in: Grid, grid_out: Grid,
                in_shape: Tuple[int, ...], deferred: bool,
                res_grid: Optional[Grid], save_input: bool) -> Stage:
    layer = unit.layer
    codes, w_scales, bits = _weight_codes(layer)
    axis = layer.weight_channel_axis
    cout = layer.weight.data.shape[axis]
    shape = [1] * codes.ndim
    shape[axis] = -1

    if unit.bn is not None:
        bn_scale, bn_shift = unit.bn.fold_scale_shift()
        bn_scale = bn_scale.astype(np.float64)
        bn_shift = bn_shift.astype(np.float64)
    else:
        bn_scale = np.ones(cout, dtype=np.float64)
        bn_shift = np.zeros(cout, dtype=np.float64)
    if getattr(layer, "bias", None) is not None:
        bn_shift = bn_shift + bn_scale * layer.bias.data.astype(np.float64)

    sign = np.sign(bn_scale).astype(np.int32)
    codes = codes * sign.reshape(shape)
    s_eff = w_scales * np.abs(bn_scale)
    # dead channels: constant output round(shift / s_y), multiplier exactly 1
    s_eff = np.where(s_eff == 0.0, grid_out.scale / grid_in.scale, s_eff)

    mults, shifts = quantize_multipliers(
        grid_in.scale * s_eff / grid_out.scale)
    bias_acc = np.clip(np.round(bn_shift / (grid_in.scale * s_eff)),
                       INT32_MIN, INT32_MAX).astype(np.int32)

    zp_y, n_y = grid_out.zero_point, grid_out.n_levels
    lo, hi = (INT32_MIN, INT32_MAX) if deferred else (0, n_y)
    if unit.relu6:
        lo = max(lo, zp_y)
        hi = min(hi, zp_y + int(np.round(6.0 / grid_out.scale)))

    residual = {}
    round_steps = 2  # output requantize + bias fold
    if unit.residual_src is not None:
        if res_grid is None:
            raise CompileError(f"{layer.name}: residual grid unresolved")
        res_mult, res_shift = quantize_multipliers(
            np.array([res_grid.scale / grid_out.scale]))
        residual = dict(residual_from=unit.residual_src,
                        res_mult=int(res_mult[0]),
                        res_shift=int(res_shift[0]),
                        res_zp=res_grid.zero_point)
        round_steps += 2  # residual requantize + its input-quant error

    depthwise = isinstance(layer, DepthwiseConv2D)
    h, w = in_shape[0], in_shape[1]
    out_h = F.conv_output_size(h, layer.kernel, layer.stride, layer.padding)
    out_w = F.conv_output_size(w, layer.kernel, layer.stride, layer.padding)
    return Stage(
        name=layer.name, kind="dw" if depthwise else "conv",
        in_shape=tuple(in_shape), out_shape=(out_h, out_w, cout),
        macs=layer.macs(h, w),
        weight=codes, stride=layer.stride, padding=layer.padding,
        in_zp=grid_in.zero_point, mult=mults, shift=shifts,
        bias_acc=bias_acc, out_zp=zp_y, clamp_lo=int(lo), clamp_hi=int(hi),
        save_input=save_input, weight_bits=bits,
        weight_count=int(codes.size), out_channels=cout,
        round_steps=round_steps, **residual)


def _dense_stage(unit: _DenseUnit, grid_in: Grid,
                 in_shape: Tuple[int, ...]) -> Stage:
    layer = unit.layer
    if in_shape != (layer.in_features,):
        raise CompileError(
            f"{layer.name}: expects ({layer.in_features},), the graph "
            f"produces {in_shape}")
    codes, w_scales, bits = _weight_codes(layer)
    out_scale = (grid_in.scale * w_scales).astype(np.float64)
    bias = (layer.bias.data.astype(np.float32)
            if layer.bias is not None
            else np.zeros(layer.out_features, dtype=np.float32))
    return Stage(
        name=layer.name, kind="dense",
        in_shape=tuple(in_shape), out_shape=(layer.out_features,),
        macs=layer.macs(),
        weight=codes, in_zp=grid_in.zero_point,
        out_scale=out_scale, out_bias=bias,
        weight_bits=bits, weight_count=int(codes.size),
        out_channels=layer.out_features, round_steps=0)


def _gap_stage(grid: Grid, in_shape: Tuple[int, ...]) -> Stage:
    if len(in_shape) != 3:
        raise CompileError("global average pool expects NHWC input")
    return Stage(name="gap", kind="gap", in_shape=tuple(in_shape),
                 out_shape=(in_shape[2],),
                 clamp_lo=0, clamp_hi=grid.n_levels, round_steps=1)


def compile_model(model: Sequential, image_size: int,
                  name: str = "model") -> "Program":
    """Lower a calibrated, quantized model to an integer :class:`Program`.

    ``image_size`` is the input's spatial extent (inputs are square NHWC,
    as everywhere in the framework).  Raises :class:`CompileError` for
    unsupported graphs, missing quantizers, or uncalibrated activations.
    """
    from .engine import Program

    units = _flatten_units(model)
    conv_positions = [k for k, unit in enumerate(units)
                      if isinstance(unit, (_ConvUnit, _DenseUnit))]
    grids = {k: _grid_of(units[k].layer) for k in conv_positions}

    first = units[conv_positions[0]].layer
    in_channels = first.in_channels
    in_shape: Tuple[int, ...] = (image_size, image_size, in_channels)

    # stage k is unit k; a residual source saves its input for a later add
    saved = {unit.residual_src for unit in units
             if isinstance(unit, _ConvUnit) and unit.residual_src is not None}

    stages: List[Stage] = []
    for k, unit in enumerate(units):
        if isinstance(unit, _DenseUnit):
            stages.append(_dense_stage(unit, grids[k], in_shape))
        elif isinstance(unit, _ConvUnit):
            next_pos = min(p for p in conv_positions if p > k)
            grid_out = grids[next_pos]
            deferred = (k + 1 < len(units)
                        and isinstance(units[k + 1], _GapUnit))
            res_grid = (grids[unit.residual_src]
                        if unit.residual_src is not None else None)
            stages.append(_conv_stage(unit, grids[k], grid_out, in_shape,
                                      deferred, res_grid, k in saved))
        else:
            # the pool carries the grid of the next quantized consumer
            next_pos = min(p for p in conv_positions if p > k)
            stages.append(_gap_stage(grids[next_pos], in_shape))
        in_shape = stages[-1].out_shape

    return Program(stages=stages, input_grid=grids[conv_positions[0]],
                   image_size=image_size, in_channels=in_channels,
                   name=name)
