"""Loss functions and classification metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .module import FLOAT


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Softmax cross-entropy with integer labels and optional label smoothing.

    ``forward`` returns the mean loss; ``backward`` returns the gradient of
    the mean loss w.r.t. the logits (already divided by the batch size).
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing
        self._cache = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected (N, classes) logits, got {logits.shape}")
        if labels.shape[0] != logits.shape[0]:
            raise ValueError("batch size mismatch between logits and labels")
        n, n_classes = logits.shape
        probs = softmax(logits.astype(np.float64))
        targets = np.full((n, n_classes),
                          self.label_smoothing / n_classes, dtype=np.float64)
        targets[np.arange(n), labels] += 1.0 - self.label_smoothing
        log_probs = np.log(np.clip(probs, 1e-12, None))
        loss = -(targets * log_probs).sum(axis=1).mean()
        self._cache = (probs, targets, n)
        return float(loss)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, targets, n = self._cache
        grad = (probs - targets) / n
        self._cache = None
        return grad.astype(FLOAT)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy as a fraction in [0, 1]."""
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    predictions = logits.argmax(axis=-1)
    return float((predictions == labels).mean())


def evaluate_classifier(model, x: np.ndarray, labels: np.ndarray,
                        batch_size: int = 256) -> Tuple[float, float]:
    """Evaluate ``(loss, accuracy)`` of a model on a labelled set."""
    logits = model.predict(x, batch_size=batch_size)
    loss_fn = SoftmaxCrossEntropy()
    loss = loss_fn.forward(logits, labels)
    return loss, accuracy(logits, labels)
