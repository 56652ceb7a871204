"""The BOMP-NAS search space (Table I) and genome machinery."""

from .builder import build_model, count_macs, scaled_width, stem_channels
from .distance import GenomeDistance
from .genome import ArchGenome, BlockGenes, MixedPrecisionGenome
from .space import (CIFAR10_WIDTH_CHOICES, CIFAR100_WIDTH_CHOICES,
                    CONV2_FILTER_CHOICES, EXPANSION_CHOICES, KERNEL_CHOICES,
                    MOBILENETV2_BASE_WIDTHS, REPETITION_CHOICES,
                    STRIDED_BLOCKS, BlockSpace, SearchSpace,
                    quantization_slot_names)

__all__ = [
    "SearchSpace", "BlockSpace", "quantization_slot_names",
    "ArchGenome", "BlockGenes", "MixedPrecisionGenome",
    "build_model", "count_macs", "scaled_width",
    "stem_channels",
    "GenomeDistance",
    "MOBILENETV2_BASE_WIDTHS", "CIFAR10_WIDTH_CHOICES",
    "CIFAR100_WIDTH_CHOICES", "KERNEL_CHOICES", "EXPANSION_CHOICES",
    "REPETITION_CHOICES", "CONV2_FILTER_CHOICES", "STRIDED_BLOCKS",
]
