"""Quantization substrate: fake quantizers, policies, PTQ and QAFT.

Replaces QKeras in the paper's stack.  Weights are quantized symmetrically
per output channel at searchable bitwidths {4..8}; activations are quantized
affinely per tensor at INT8; biases are accounted at INT32.
"""

from .apply import (ACTIVATION_BITS, BIAS_BITS, apply_policy, calibrate,
                    is_quantized, quantizable_layers, remove_quantizers)
from .export import (ExportedLayer, export_model, exported_size_kb,
                     import_model, pack_bits, rebuild_into, unpack_bits,
                     verify_roundtrip)
from .observers import (MinMaxObserver, MovingAverageObserver, Observer,
                        PercentileObserver, make_observer)
from .policy import DEFAULT_BITWIDTH_CHOICES, QuantizationPolicy
from .qaft import quantization_aware_finetune
from .quantizers import (ActivationQuantizer, FixedScaleWeightQuantizer,
                         WeightQuantizer, quantization_error,
                         quantize_symmetric, symmetric_scale)
from .size import (BITS_PER_KB, FLOAT_BITS, LayerSize, bitwidth_by_layer,
                   layer_sizes, model_size_bits, model_size_kb, size_report)

__all__ = [
    "QuantizationPolicy", "DEFAULT_BITWIDTH_CHOICES",
    "WeightQuantizer", "ActivationQuantizer", "FixedScaleWeightQuantizer",
    "quantize_symmetric", "symmetric_scale", "quantization_error",
    "Observer", "MinMaxObserver", "MovingAverageObserver",
    "PercentileObserver", "make_observer",
    "apply_policy", "calibrate", "remove_quantizers", "is_quantized",
    "quantizable_layers",
    "quantization_aware_finetune",
    "model_size_bits", "model_size_kb", "layer_sizes", "LayerSize",
    "size_report", "bitwidth_by_layer",
    "ACTIVATION_BITS", "BIAS_BITS", "BITS_PER_KB", "FLOAT_BITS",
    "export_model", "import_model", "verify_roundtrip", "ExportedLayer",
    "pack_bits", "unpack_bits", "exported_size_kb", "rebuild_into",
]
