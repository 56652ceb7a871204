"""Parity harness: integer engine vs the float fake-quant reference.

Two complementary checks on the same inputs:

1. **Teacher-forced per-stage divergence.**  The reference model is run
   once with capturing input quantizers, recording the exact integer
   codes the fake-quant simulation produces at every quantized layer
   boundary.  Each integer stage segment (a conv stage, plus the global
   average pool when one follows it) is then fed the *reference* input
   codes on the arena executor that serves :meth:`Program.run`
   (:meth:`~repro.infer.engine.ArenaExecutor.step`), and its output
   codes are compared against the reference codes of the next boundary.
   The divergence budget is the segment's rounding step count
   (``Stage.round_steps``): one LSB per requantization step — output
   requantize, bias fold, residual requantize/residual input
   quantization, pool mean — so errors cannot be laundered through
   accumulated drift.

2. **End-to-end top-1 agreement.**  The full integer pipeline (input
   quantization onward) must agree with the reference's argmax on at
   least ``min_agreement`` of the images.

Both are deterministic given fixed model weights and inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..nn.module import FLOAT
from ..quant.apply import quantizable_layers
from .engine import Program

#: stage kinds that own an activation grid (and thus reference codes)
_QUANT_KINDS = ("conv", "dw", "dense")


class _CapturingQuantizer:
    """Drop-in for a frozen ActivationQuantizer that records its codes.

    Reproduces the reference forward arithmetic exactly (same rounding,
    same clip) while keeping the integer codes it computed.
    """

    calibrating = False  # only frozen quantizers are ever wrapped

    def __init__(self, inner) -> None:
        self.inner = inner
        self.codes: List[np.ndarray] = []

    def fake_quant(self, x: np.ndarray) -> np.ndarray:
        # stateless secondary read (residual path): no capture
        return self.inner.fake_quant(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        scale, zero_point = self.inner.quant_params()
        n_levels = 2 ** self.inner.bits - 1
        q = np.clip(np.round(x / scale + zero_point), 0, n_levels)
        self.codes.append(q.astype(np.int32))
        return ((q - zero_point) * scale).astype(FLOAT)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad


@dataclass
class StageParity:
    """Divergence of one teacher-forced stage segment."""

    name: str
    max_abs_diff: int             # LSBs of the segment's output grid
    tolerance: int                # = sum of round_steps across the segment

    @property
    def ok(self) -> bool:
        return self.max_abs_diff <= self.tolerance


@dataclass
class ParityReport:
    """Outcome of a full parity run."""

    stages: List[StageParity]
    max_logit_diff: float         # teacher-forced final dense vs reference
    top1_agreement: float         # end-to-end integer vs reference argmax
    n_images: int

    def ok(self, min_agreement: float = 0.99) -> bool:
        return (all(stage.ok for stage in self.stages)
                and self.top1_agreement >= min_agreement)

    def format(self) -> str:
        lines = [f"parity on {self.n_images} images:"]
        for stage in self.stages:
            flag = "ok " if stage.ok else "FAIL"
            lines.append(f"  {flag} {stage.name:<24} "
                         f"max|diff|={stage.max_abs_diff} LSB "
                         f"(budget {stage.tolerance})")
        lines.append(f"  teacher-forced logit max|diff|: "
                     f"{self.max_logit_diff:.3e}")
        lines.append(f"  end-to-end top-1 agreement: "
                     f"{self.top1_agreement:.4f}")
        return "\n".join(lines)


def capture_reference(model, x: np.ndarray):
    """Run the fake-quant reference, capturing codes at every boundary.

    Returns ``(codes, logits)`` — one int32 code array per quantizable
    layer (execution order) and the reference float logits.
    """
    layers = quantizable_layers(model)
    captures = []
    originals = []
    for layer in layers:
        quantizer = layer.input_quantizer
        if quantizer is None or not quantizer.frozen:
            raise ValueError(f"{layer.name}: input quantizer missing or "
                             "uncalibrated; parity needs a PTQ'd model")
        capture = _CapturingQuantizer(quantizer)
        originals.append(quantizer)
        captures.append(capture)
        layer.input_quantizer = capture
    model.set_training(False)
    try:
        logits = model.forward(x)
    finally:
        for layer, original in zip(layers, originals):
            layer.input_quantizer = original
    codes = []
    for capture in captures:
        if len(capture.codes) != 1:
            raise RuntimeError("expected exactly one forward per quantizer")
        codes.append(capture.codes[0])
    return codes, logits


def check_parity(model, program: Program, x: np.ndarray,
                 min_agreement: float = 0.99) -> ParityReport:
    """Compare ``program`` against the fake-quant ``model`` on batch ``x``.

    Returns a :class:`ParityReport`; callers decide whether
    ``report.ok(min_agreement)`` failing is fatal.
    """
    reference_codes, reference_logits = capture_reference(model, x)
    boundaries = [k for k, stage in enumerate(program.stages)
                  if stage.kind in _QUANT_KINDS]
    if len(boundaries) != len(reference_codes):
        raise ValueError(
            f"program has {len(boundaries)} quantized stages, model has "
            f"{len(reference_codes)} quantized layers")

    # reference codes for every saved residual input, keyed by stage index
    saved = {k: reference_codes[j] for j, k in enumerate(boundaries)
             if program.stages[k].save_input}

    executor = program.executor(int(x.shape[0]))
    stage_reports = []
    for j in range(len(boundaries) - 1):
        start, stop = boundaries[j], boundaries[j + 1]
        out = executor.step(reference_codes[j], start, stop, saved)
        diff = int(np.abs(out.astype(np.int64)
                          - reference_codes[j + 1].astype(np.int64)).max())
        budget = sum(program.stages[k].round_steps
                     for k in range(start, stop))
        stage_reports.append(StageParity(
            name=program.stages[start].name, max_abs_diff=diff,
            tolerance=budget))

    # teacher-forced final dense: exact integer accumulation, so only
    # float32-vs-float64 dequantization noise remains
    forced_logits = executor.step(reference_codes[-1], boundaries[-1],
                                  len(program.stages), saved)
    max_logit_diff = float(
        np.abs(forced_logits - reference_logits).max())

    integer_top1 = program.predict(x, batch_size=x.shape[0])
    reference_top1 = np.argmax(reference_logits, axis=1)
    agreement = float((integer_top1 == reference_top1).mean())

    return ParityReport(stages=stage_reports,
                        max_logit_diff=max_logit_diff,
                        top1_agreement=agreement,
                        n_images=int(x.shape[0]))
