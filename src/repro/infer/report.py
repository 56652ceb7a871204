"""Deployment cost report for a compiled integer program.

Three figures the MCU-deployment literature cares about (the μNAS
baseline constrains all of them):

- **MACs** per image, per layer and total — identical by construction to
  :func:`repro.space.builder.count_macs` on the source model;
- **packed weight bytes** — weight codes bit-packed at the policy
  bitwidth and padded to whole bytes per layer (exactly what
  :func:`repro.quant.export.pack_bits` emits), plus the per-layer
  constant overhead of :mod:`repro.quant.size` (bias + scales +
  activation params), so totals agree with the analytic accounting up to
  the <=1 byte/layer bit-packing padding;
- **peak activation memory** via liveness analysis of the sequential
  stage graph, at batch 1 (the MCU execution model) and one byte per
  element (codes are int8-representable; the engine's int32 carriers are
  a host-side convenience, not a deployment requirement).  A tensor is
  live while it is an executing stage's input or output, and a residual
  source stays live from the block input until the project stage consumes
  it; the peak is the max over stages of the live-byte sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..quant.apply import BIAS_BITS
from ..quant.size import FLOAT_BITS
from .engine import Program
from .plan import peak_liveness, plan_arena

#: stage kinds that carry weights
_WEIGHT_KINDS = ("conv", "dw", "dense")


@dataclass
class LayerCost:
    """Deployment cost of one compiled stage."""

    name: str
    kind: str
    out_shape: Tuple[int, ...]
    macs: int
    weight_bits: int
    weight_count: int
    weight_bytes: int             # bit-packed codes, byte-padded
    overhead_bytes: int           # bias + scales + activation params

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.overhead_bytes


@dataclass
class DeploymentReport:
    """The full cost picture of a compiled program."""

    name: str
    image_size: int
    layers: List[LayerCost]
    total_macs: int
    weight_bytes: int
    overhead_bytes: int
    peak_activation_bytes: int
    peak_stage: str
    #: host executor's packed int32 arena, per image (0 for legacy callers)
    arena_int32_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.overhead_bytes

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024


def deployment_report(program: Program) -> DeploymentReport:
    """Compute the per-layer and aggregate deployment costs."""
    layers: List[LayerCost] = []
    for stage in program.stages:
        if stage.kind not in _WEIGHT_KINDS:
            continue
        weight_bytes = -(-stage.weight_count * stage.weight_bits // 8)
        overhead_bits = stage.out_channels * BIAS_BITS
        if stage.weight_bits < FLOAT_BITS:
            overhead_bits += stage.out_channels * FLOAT_BITS
            overhead_bits += 2 * FLOAT_BITS
        layers.append(LayerCost(
            name=stage.name, kind=stage.kind, out_shape=stage.out_shape,
            macs=stage.macs, weight_bits=stage.weight_bits,
            weight_count=stage.weight_count, weight_bytes=weight_bytes,
            overhead_bytes=overhead_bits // 8))
    # the planner's liveness intervals at one byte per INT8 element
    peak, peak_stage = peak_liveness(program.stages)
    return DeploymentReport(
        name=program.name, image_size=program.image_size, layers=layers,
        total_macs=sum(layer.macs for layer in layers),
        weight_bytes=sum(layer.weight_bytes for layer in layers),
        overhead_bytes=sum(layer.overhead_bytes for layer in layers),
        peak_activation_bytes=peak, peak_stage=peak_stage,
        arena_int32_bytes=plan_arena(program.stages).arena_bytes(1))


def format_report(report: DeploymentReport) -> str:
    """Render the deployment report as a text table."""
    lines = [
        f"deployment report - {report.name} "
        f"({report.image_size}x{report.image_size} input)",
        f"{'layer':<24} {'kind':<6} {'bits':>4} {'MACs':>10} "
        f"{'weights':>9} {'bytes':>9}",
    ]
    for layer in report.layers:
        lines.append(
            f"{layer.name:<24} {layer.kind:<6} {layer.weight_bits:>4} "
            f"{layer.macs:>10} {layer.weight_count:>9} "
            f"{layer.total_bytes:>9}")
    lines.append(
        f"{'TOTAL':<36} {report.total_macs:>10} "
        f"{sum(l.weight_count for l in report.layers):>9} "
        f"{report.total_bytes:>9}")
    lines.append(
        f"model size: {report.total_kb:.2f} kB "
        f"(weights {report.weight_bytes} B + overhead "
        f"{report.overhead_bytes} B)")
    lines.append(
        f"peak INT8 activation memory: {report.peak_activation_bytes} B "
        f"at {report.peak_stage} (batch 1, liveness)")
    if report.arena_int32_bytes:
        lines.append(
            f"host tensor arena: {report.arena_int32_bytes} B/image "
            f"(int32, liveness-packed)")
    return "\n".join(lines)
