"""Build trainable models from architecture genomes.

Implements the CIFAR variant of MobileNetV2 described in Section III: the
stem keeps full resolution and the two resolution reductions happen at the
first repetition of the bottlenecks following positions 4 and 6 (blocks 5
and 7) via strided depthwise convolutions.  When a strided block has zero
repetitions its reduction is deferred to the next present bottleneck.

Every quantizable layer is tagged with its ``quant_slot`` so that
:func:`repro.quant.apply.apply_policy` can map a 23-slot policy onto any
architecture in the space; all repetitions of a block share its slots.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn.blocks import ConvBNReLU, InvertedBottleneck
from ..nn.conv import Conv2D, DepthwiseConv2D
from ..nn.layers import Dense, GlobalAvgPool2D
from ..nn.module import Module
from ..nn.network import Sequential
from .genome import ArchGenome
from .space import MOBILENETV2_BASE_WIDTHS, STRIDED_BLOCKS


def scaled_width(base: int, multiplier: float) -> int:
    """Channel count after applying a width multiplier (at least 1)."""
    if base <= 0:
        raise ValueError("base width must be positive")
    if multiplier <= 0:
        raise ValueError("width multiplier must be positive")
    return max(1, int(round(base * multiplier)))


def stem_channels(arch: ArchGenome) -> int:
    """Stem width, scaled by the first bottleneck's width multiplier.

    MobileNetV2's stem has 32 channels under a *global* multiplier; with
    per-block multipliers we scale the stem by block 1's multiplier (floor
    of 4 channels) so that tiny-width genomes yield proportionally tiny
    stems — necessary for the paper's few-kB models to exist in the space.
    """
    return max(4, int(round(32 * arch.blocks[0].width_multiplier)))


def build_model(arch: ArchGenome, num_classes: int,
                input_channels: int = 3,
                rng: Optional[np.random.Generator] = None,
                name: str = "candidate") -> Sequential:
    """Instantiate a genome as a trainable :class:`Sequential` network."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: List[Module] = []

    stem_ch = stem_channels(arch)
    stem = ConvBNReLU(input_channels, stem_ch, kernel=3, stride=1,
                      rng=rng, name="stem")
    stem.conv.quant_slot = "stem"
    layers.append(stem)

    prev_ch = stem_ch
    pending_strides = 0
    for index, genes in enumerate(arch.blocks, start=1):
        if index in STRIDED_BLOCKS:
            pending_strides += 1
        if genes.repetitions == 0:
            continue
        out_ch = scaled_width(MOBILENETV2_BASE_WIDTHS[index - 1],
                              genes.width_multiplier)
        for rep in range(genes.repetitions):
            stride = 1
            if rep == 0 and pending_strides > 0:
                stride = 2
                pending_strides -= 1
            block = InvertedBottleneck(
                in_channels=prev_ch, out_channels=out_ch,
                kernel=genes.kernel, expansion=genes.expansion,
                stride=stride, rng=rng, name=f"ib{index}_r{rep}")
            _tag_block(block, index)
            layers.append(block)
            prev_ch = out_ch

    head = ConvBNReLU(prev_ch, arch.conv2_filters, kernel=1, stride=1,
                      rng=rng, name="conv2")
    head.conv.quant_slot = "conv2"
    layers.append(head)
    layers.append(GlobalAvgPool2D())
    classifier = Dense(arch.conv2_filters, num_classes, rng=rng,
                       name="classifier")
    classifier.quant_slot = "classifier"
    layers.append(classifier)
    return Sequential(layers, name=name)


def _tag_block(block: InvertedBottleneck, index: int) -> None:
    """Assign quantization slots to a bottleneck's convolutions."""
    if block.expand is not None:
        block.expand.conv.quant_slot = f"ib{index}.expand"
    block.depthwise.quant_slot = f"ib{index}.dw"
    block.project.quant_slot = f"ib{index}.project"


def count_macs(model: Sequential, input_hw: Tuple[int, int],
               input_channels: int = 3) -> int:
    """Exact multiply-accumulate count for one image.

    Walks the network tracking spatial dimensions and queries each
    convolution's analytic ``macs``; dense layers contribute
    ``in_features * out_features``.
    """
    h, w = input_hw
    if h <= 0 or w <= 0:
        raise ValueError("input size must be positive")
    total = 0
    for module in model.modules():
        if isinstance(module, (Conv2D, DepthwiseConv2D)):
            total += module.macs(h, w)
            if module.stride > 1:
                h = -(-h // module.stride)
                w = -(-w // module.stride)
        elif isinstance(module, Dense):
            total += module.macs()
    return total
