"""Composite MobileNetV2 building blocks.

The inverted bottleneck (Sandler et al., 2018) is the unit the BOMP-NAS
search space is built from: an optional 1x1 expansion convolution, a
depthwise convolution, and a linear 1x1 projection, with a residual add when
input and output shapes match.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .conv import Conv2D, DepthwiseConv2D
from .layers import BatchNorm2D, ReLU6
from .module import Module


class ConvBNReLU(Module):
    """Convolution → batch norm → ReLU6, the standard MobileNet triplet."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, rng: Optional[np.random.Generator] = None,
                 name: str = "convbnrelu") -> None:
        super().__init__(name)
        self.conv = Conv2D(in_channels, out_channels, kernel, stride,
                           rng=rng, name=f"{name}.conv")
        self.bn = BatchNorm2D(out_channels, name=f"{name}.bn")
        self.act = ReLU6(name=f"{name}.relu6")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.act.forward(self.bn.forward(self.conv.forward(x)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.conv.backward(self.bn.backward(self.act.backward(grad)))


class InvertedBottleneck(Module):
    """MobileNetV2 inverted residual block.

    Structure (expansion factor ``e``):

    - ``e > 1``: 1x1 expand conv (``c_in -> e*c_in``) + BN + ReLU6
    - depthwise ``k x k`` conv (stride ``s``) + BN + ReLU6
    - 1x1 linear projection (``-> c_out``) + BN
    - residual add iff ``stride == 1`` and ``c_in == c_out``

    The searchable kernel size applies to the depthwise convolution.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 expansion: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "ib") -> None:
        super().__init__(name)
        if expansion < 1:
            raise ValueError(f"expansion factor must be >= 1, got {expansion}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.expansion = expansion
        hidden = in_channels * expansion
        self.hidden_channels = hidden

        self.expand: Optional[ConvBNReLU] = None
        if expansion > 1:
            self.expand = ConvBNReLU(in_channels, hidden, kernel=1,
                                     rng=rng, name=f"{name}.expand")
        self.depthwise = DepthwiseConv2D(hidden, kernel, stride,
                                         rng=rng, name=f"{name}.dw")
        self.dw_bn = BatchNorm2D(hidden, name=f"{name}.dw_bn")
        self.dw_act = ReLU6(name=f"{name}.dw_relu6")
        self.project = Conv2D(hidden, out_channels, kernel=1,
                              rng=rng, name=f"{name}.project")
        self.project_bn = BatchNorm2D(out_channels, name=f"{name}.proj_bn")
        self.use_residual = stride == 1 and in_channels == out_channels

    def _residual_input(self, x: np.ndarray) -> np.ndarray:
        """The value the skip connection adds.

        Once the block's first convolution carries a frozen input
        quantizer, the deployed integer engine can only read the
        grid-clamped code of ``x`` — so the fake-quant reference must add
        that same value, not the raw float.  Outlier activations beyond
        the calibrated range would otherwise make the float residual
        diverge unboundedly from any integer implementation.
        """
        first = self.expand.conv if self.expand is not None else \
            self.depthwise
        quantizer = first.input_quantizer
        if quantizer is None or getattr(quantizer, "calibrating", True):
            return x
        return quantizer.fake_quant(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        if self.expand is not None:
            out = self.expand.forward(out)
        out = self.dw_act.forward(self.dw_bn.forward(
            self.depthwise.forward(out)))
        out = self.project_bn.forward(self.project.forward(out))
        if self.use_residual:
            out = out + self._residual_input(x)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dmain = self.project.backward(self.project_bn.backward(grad))
        dmain = self.depthwise.backward(self.dw_bn.backward(
            self.dw_act.backward(dmain)))
        if self.expand is not None:
            dmain = self.expand.backward(dmain)
        if self.use_residual:
            dmain = dmain + grad
        return dmain

    def __repr__(self) -> str:
        return (f"InvertedBottleneck({self.in_channels}->{self.out_channels}, "
                f"k={self.depthwise.kernel}, e={self.expansion}, "
                f"s={self.stride}, residual={self.use_residual})")
