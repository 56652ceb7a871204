"""Genome types for the joint architecture + quantization search space.

An :class:`ArchGenome` fixes the searchable architecture parameters of
Table I (per-bottleneck kernel size, width multiplier, expansion factor and
repetitions, plus the head convolution's filter count).  A
:class:`MixedPrecisionGenome` pairs an architecture with a
:class:`~repro.quant.policy.QuantizationPolicy`.  Genomes are immutable and
hashable so they can key caches and GP training sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..quant.policy import QuantizationPolicy


@dataclass(frozen=True)
class BlockGenes:
    """Searchable parameters of one inverted bottleneck."""

    kernel: int
    width_multiplier: float
    expansion: int
    repetitions: int

    def as_tuple(self) -> Tuple:
        return (self.kernel, self.width_multiplier, self.expansion,
                self.repetitions)


@dataclass(frozen=True)
class ArchGenome:
    """A complete architecture choice from the Table I space.

    ``blocks`` holds the seven inverted bottlenecks in order;
    ``conv2_filters`` is the filter count of the 1x1 head convolution.
    """

    blocks: Tuple[BlockGenes, ...]
    conv2_filters: int

    def __post_init__(self) -> None:
        if len(self.blocks) != 7:
            raise ValueError(
                f"expected 7 bottleneck blocks, got {len(self.blocks)}")
        if self.conv2_filters <= 0:
            raise ValueError("conv2_filters must be positive")

    def as_tuple(self) -> Tuple:
        return tuple(b.as_tuple() for b in self.blocks) + (self.conv2_filters,)

    def describe(self) -> str:
        parts = []
        for i, b in enumerate(self.blocks, start=1):
            parts.append(f"ib{i}(k={b.kernel}, a={b.width_multiplier}, "
                         f"e={b.expansion}, n={b.repetitions})")
        parts.append(f"conv2(f={self.conv2_filters})")
        return " ".join(parts)

    def __hash__(self) -> int:
        return hash(self.as_tuple())


@dataclass(frozen=True)
class MixedPrecisionGenome:
    """Joint (architecture, quantization policy) candidate — one BO point."""

    arch: ArchGenome
    policy: QuantizationPolicy

    def as_key(self) -> Tuple:
        return (self.arch.as_tuple(),
                tuple(sorted(self.policy.as_dict().items())))

    def __hash__(self) -> int:
        return hash(self.as_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedPrecisionGenome):
            return NotImplemented
        return self.as_key() == other.as_key()
