"""Weight (de)serialization and weight-vector snapshots.

Weights are stored positionally (``param_0``, ``param_1``, ...) plus batch
norm running statistics, so a model rebuilt from the same genome can reload
a snapshot exactly.  Snapshots are also used by the NAS loop to restore the
full-precision weights between quantization policies when several policies
are evaluated per trial (the paper's future-work extension).

Quantized models carry one extra piece of non-replayable state: the frozen
calibration range of each activation quantizer.  Snapshots store those as
``aq_{i}_range`` (in ``model.modules()`` order), so a rebuilt model with
the same policy re-applied reloads to bit-identical forwards without
re-calibration.  Weight quantizers are stateless beyond the policy (scales
are recomputed from the weights every forward) and need nothing here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .layers import BatchNorm2D
from .module import Module


def _activation_quantizers(model: Module) -> List:
    """Attached activation quantizers, in ``model.modules()`` order.

    Duck-typed on the ``input_quantizer`` attribute so this module never
    imports :mod:`repro.quant` (which imports :mod:`repro.nn`).
    """
    quantizers = []
    for module in model.modules():
        quantizer = getattr(module, "input_quantizer", None)
        if quantizer is not None:
            quantizers.append(quantizer)
    return quantizers


def state_dict(model: Module) -> Dict[str, np.ndarray]:
    """Snapshot of parameters, batch-norm stats, and frozen quantizer ranges.

    Raises ``ValueError`` if an attached activation quantizer is still
    calibrating: an unfrozen range cannot be serialized, and silently
    skipping it would make the snapshot's quantizer count disagree with
    the model's.
    """
    state: Dict[str, np.ndarray] = {}
    for i, param in enumerate(model.parameters()):
        state[f"param_{i}"] = param.data.copy()
    bn_index = 0
    for module in model.modules():
        if isinstance(module, BatchNorm2D):
            state[f"bn_{bn_index}_mean"] = module.running_mean.copy()
            state[f"bn_{bn_index}_var"] = module.running_var.copy()
            bn_index += 1
    for i, quantizer in enumerate(_activation_quantizers(model)):
        if quantizer.calibrating:
            raise ValueError(
                f"activation quantizer {i} is still calibrating; freeze "
                "quantizers (repro.quant.calibrate) before snapshotting")
        lo, hi = quantizer._range
        state[f"aq_{i}_range"] = np.array([lo, hi], dtype=np.float64)
    return state


def load_state_dict(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Restore a snapshot produced by :func:`state_dict`.

    Raises ``ValueError`` on any shape or count mismatch so that loading a
    snapshot into a model built from a different genome fails loudly.
    """
    params = model.parameters()
    expected = {f"param_{i}" for i in range(len(params))}
    missing = expected - set(state)
    if missing:
        raise ValueError(f"snapshot is missing parameters: {sorted(missing)}")
    for i, param in enumerate(params):
        data = state[f"param_{i}"]
        if data.shape != param.data.shape:
            raise ValueError(
                f"shape mismatch for param_{i}: snapshot {data.shape} vs "
                f"model {param.data.shape}")
        param.data = data.copy()
    bn_modules: List[BatchNorm2D] = [
        m for m in model.modules() if isinstance(m, BatchNorm2D)]
    for i, module in enumerate(bn_modules):
        mean_key, var_key = f"bn_{i}_mean", f"bn_{i}_var"
        if mean_key not in state or var_key not in state:
            raise ValueError(f"snapshot is missing running stats for BN {i}")
        if state[mean_key].shape != module.running_mean.shape:
            raise ValueError(f"shape mismatch for BN {i} running stats")
        module.running_mean = state[mean_key].copy()
        module.running_var = state[var_key].copy()
    aq_keys = sorted(k for k in state if k.startswith("aq_"))
    if not aq_keys:
        return  # full-precision snapshot; leave any quantizers untouched
    quantizers = _activation_quantizers(model)
    expected_aq = {f"aq_{i}_range" for i in range(len(quantizers))}
    if set(aq_keys) != expected_aq:
        raise ValueError(
            f"snapshot has quantizer ranges {aq_keys} but the model has "
            f"{len(quantizers)} activation quantizers; apply the same "
            "quantization policy before loading")
    for i, quantizer in enumerate(quantizers):
        lo, hi = state[f"aq_{i}_range"]
        quantizer._range = (float(lo), float(hi))
        quantizer.calibrating = False
