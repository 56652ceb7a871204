"""Quantization-aware fine-tuning (QAFT).

QAFT is ordinary gradient training run on a model whose layers carry fake
quantizers: forwards see quantized weights/activations, backwards flow
through the straight-through estimators to the latent full-precision
weights.  The paper runs 1 epoch of QAFT inside the search loop and 5
epochs after final training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.network import Sequential
from ..nn.optim import SGD, ConstantLR
from ..nn.trainer import Trainer, TrainHistory
from .apply import is_quantized


def quantization_aware_finetune(model: Sequential,
                                x: np.ndarray, labels: np.ndarray,
                                epochs: int = 1,
                                learning_rate: float = 0.002,
                                batch_size: int = 64,
                                momentum: float = 0.9,
                                rng: Optional[np.random.Generator] = None
                                ) -> TrainHistory:
    """Fine-tune a quantized model so it compensates for quantization noise.

    The model must already have quantizers attached and calibrated
    (``apply_policy`` + ``calibrate``); raises ``RuntimeError`` otherwise.
    Uses plain SGD at a small constant learning rate, the usual QAT recipe.
    """
    if not is_quantized(model):
        raise RuntimeError(
            "QAFT requires quantizers to be attached; call apply_policy "
            "and calibrate first")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    optimizer = SGD(model.parameters(), ConstantLR(learning_rate),
                    momentum=momentum)
    trainer = Trainer(model, optimizer)
    return trainer.fit(x, labels, epochs=epochs, batch_size=batch_size,
                       rng=rng)
