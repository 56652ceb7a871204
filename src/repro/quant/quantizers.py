"""Fake quantizers with straight-through estimators.

Quantization semantics follow the paper (Section III, citing Nagel et al.):

- **Weights**: symmetric uniform quantization, *per output channel*, to a
  searchable bitwidth in {4..8}.  The scale is recomputed from the current
  weight values on every forward pass, so QAFT continuously adapts.
- **Activations**: affine uniform quantization, *per tensor*, to INT8, with
  the range frozen from calibration observers.
- **Biases**: INT32 — at 32 bits the rounding error is negligible, so biases
  are kept in float during simulation and only *accounted* at 32 bits by
  :mod:`repro.quant.size` (the standard deployment convention).

Both quantizers implement ``forward``/``backward``; ``backward`` is the
straight-through estimator (identity for weights, in-range mask for
activations).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.module import FLOAT
from ..obs import profile as prof
from .observers import MinMaxObserver, Observer


def symmetric_scale(weights: np.ndarray, bits: int,
                    channel_axis: Optional[int] = None) -> np.ndarray:
    """Per-channel (or per-tensor) symmetric quantization scale.

    The scale maps the largest absolute weight onto the top quantization
    level ``2**(bits-1) - 1``.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    qmax = 2 ** (bits - 1) - 1
    if channel_axis is None:
        max_abs = np.abs(weights).max()
        scale = np.asarray(max_abs / qmax, dtype=np.float64)
    else:
        axes = tuple(a for a in range(weights.ndim) if a != channel_axis)
        max_abs = np.abs(weights).max(axis=axes)
        scale = max_abs / qmax
    # an all-zero channel would give scale 0 -> division by zero
    return np.where(scale > 0, scale, 1.0)


def quantize_symmetric(weights: np.ndarray, bits: int,
                       channel_axis: Optional[int] = None) -> np.ndarray:
    """Round weights onto the symmetric grid and return the dequantized copy."""
    scale = symmetric_scale(weights, bits, channel_axis)
    qmax = 2 ** (bits - 1) - 1
    if channel_axis is not None:
        shape = [1] * weights.ndim
        shape[channel_axis] = -1
        scale = scale.reshape(shape)
    q = np.clip(np.round(weights / scale), -qmax, qmax)
    return (q * scale).astype(FLOAT)


class WeightQuantizer:
    """Symmetric per-channel fake quantizer for weight tensors.

    ``forward`` quantizes to the grid, ``backward`` passes the gradient
    straight through to the latent full-precision weights (STE), which is
    what makes quantization-aware fine-tuning work.
    """

    def __init__(self, bits: int, channel_axis: Optional[int] = None) -> None:
        if not 2 <= bits <= 32:
            raise ValueError(f"bits must be in [2, 32], got {bits}")
        self.bits = bits
        self.channel_axis = channel_axis

    def forward(self, weights: np.ndarray) -> np.ndarray:
        if self.bits >= 32:
            return weights
        with prof.kernel("quant.weight_fq"):
            return quantize_symmetric(weights, self.bits, self.channel_axis)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad

    def scale_for(self, weights: np.ndarray) -> np.ndarray:
        """The float64 scale(s) ``forward`` would quantize ``weights`` with.

        Exposed so deployment (export, integer compilation) shares the
        exact scale arithmetic of the fake-quant simulation.
        """
        return symmetric_scale(weights, self.bits, self.channel_axis)

    def num_scales(self, weights_shape: tuple) -> int:
        """Number of 32-bit scale constants this quantizer stores on disk."""
        if self.channel_axis is None:
            return 1
        return int(weights_shape[self.channel_axis])

    def __repr__(self) -> str:
        return (f"WeightQuantizer(bits={self.bits}, "
                f"channel_axis={self.channel_axis})")


class FixedScaleWeightQuantizer(WeightQuantizer):
    """A weight quantizer pinned to externally supplied scales.

    Used when rebuilding a model from an exported container
    (:func:`repro.quant.export.rebuild_into`): the stored float64 scales
    are reused verbatim instead of being recomputed from the weights, so
    quantization is idempotent — weights already on the grid round back to
    the exact same integer codes, making the rebuilt model bit-identical
    to the pre-export one.
    """

    def __init__(self, bits: int, channel_axis: Optional[int],
                 scales: np.ndarray) -> None:
        super().__init__(bits, channel_axis=channel_axis)
        self.scales = np.asarray(scales, dtype=np.float64)

    def scale_for(self, weights: np.ndarray) -> np.ndarray:
        return self.scales

    def forward(self, weights: np.ndarray) -> np.ndarray:
        if self.bits >= 32:
            return weights
        with prof.kernel("quant.weight_fq"):
            qmax = 2 ** (self.bits - 1) - 1
            scale = self.scales
            if self.channel_axis is not None:
                shape = [1] * weights.ndim
                shape[self.channel_axis] = -1
                scale = scale.reshape(shape)
            q = np.clip(np.round(weights / scale), -qmax, qmax)
            return (q * scale).astype(FLOAT)

    def __repr__(self) -> str:
        return (f"FixedScaleWeightQuantizer(bits={self.bits}, "
                f"channel_axis={self.channel_axis})")


class ActivationQuantizer:
    """Affine per-tensor fake quantizer for activations.

    Lifecycle: constructed in *calibration* mode, where ``forward`` only
    feeds the observer and returns the input unchanged; after
    :meth:`freeze`, ``forward`` fake-quantizes with the frozen range and
    ``backward`` masks gradients of clipped values (the STE for affine
    quantization).
    """

    def __init__(self, bits: int = 8,
                 observer: Optional[Observer] = None) -> None:
        if not 2 <= bits <= 32:
            raise ValueError(f"bits must be in [2, 32], got {bits}")
        self.bits = bits
        self.observer = observer if observer is not None else MinMaxObserver()
        self.calibrating = True
        self._range: Optional[Tuple[float, float]] = None
        self._mask: Optional[np.ndarray] = None

    @property
    def frozen(self) -> bool:
        return not self.calibrating

    def freeze(self) -> None:
        """End calibration; subsequent forwards fake-quantize."""
        self._range = self.observer.range()
        self.calibrating = False

    def quant_params(self) -> Tuple[float, float]:
        """``(scale, zero_point)`` of the frozen affine grid."""
        if self._range is None:
            raise RuntimeError("quantizer not frozen yet")
        lo, hi = self._range
        n_levels = 2 ** self.bits - 1
        scale = (hi - lo) / n_levels
        zero_point = round(-lo / scale)
        return scale, float(zero_point)

    def fake_quant(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantize with the frozen grid, without touching any state.

        Used for secondary consumers of an already-quantized tensor (the
        residual path of an inverted bottleneck), which must see the same
        grid-clamped value the deployed integer engine reads, without
        double-feeding the observer or clobbering the STE mask.
        """
        if self.calibrating:
            return x
        scale, zero_point = self.quant_params()
        n_levels = 2 ** self.bits - 1
        q = np.clip(np.round(x / scale + zero_point), 0, n_levels)
        return ((q - zero_point) * scale).astype(FLOAT)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.calibrating:
            self.observer.observe(x)
            self._mask = None
            return x
        with prof.kernel("quant.act_fq"):
            lo, hi = self._range
            self._mask = (x >= lo) & (x <= hi)
            return self.fake_quant(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            # calibration mode (or backward without forward): pass through
            return grad
        out = F.masked(self._mask, grad)
        self._mask = None
        return out

    def __repr__(self) -> str:
        state = "calibrating" if self.calibrating else f"range={self._range}"
        return f"ActivationQuantizer(bits={self.bits}, {state})"


def quantization_error(weights: np.ndarray, bits: int,
                       channel_axis: Optional[int] = None) -> float:
    """Mean squared error introduced by symmetric quantization.

    Useful for sensitivity analysis of layers to bitwidth choices.
    """
    quantized = quantize_symmetric(weights, bits, channel_axis)
    return float(((weights - quantized) ** 2).mean())
