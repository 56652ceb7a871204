"""Mini-batch training loop with history tracking.

The trainer is the single training entry point used by early training,
quantization-aware fine-tuning (QAFT) and final training — the only
difference between those stages is the epoch count, schedule, and whether
quantizers are attached to the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..obs.trace import get_recorder
from .losses import SoftmaxCrossEntropy, accuracy
from .network import Sequential
from .optim import Optimizer, clip_gradients


@dataclass
class TrainHistory:
    """Per-epoch metrics collected during a fit."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    steps: int = 0

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains a :class:`~repro.nn.network.Sequential` classifier.

    Args:
        model: the network to train.
        optimizer: optimizer built over ``model.parameters()``.
        loss: loss object with ``forward(logits, labels)``/``backward()``.
        grad_clip: optional global-norm gradient clipping threshold.
        augment: optional callable ``(x_batch, rng) -> x_batch`` applied to
            each training batch (used for shift/flip augmentation).
    """

    def __init__(self, model: Sequential, optimizer: Optimizer,
                 loss: Optional[SoftmaxCrossEntropy] = None,
                 grad_clip: Optional[float] = 5.0,
                 augment: Optional[Callable] = None) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.grad_clip = grad_clip
        self.augment = augment

    def train_epoch(self, x: np.ndarray, labels: np.ndarray,
                    batch_size: int, rng: np.random.Generator,
                    history: TrainHistory) -> None:
        """One shuffled pass over the training set."""
        n = x.shape[0]
        order = rng.permutation(n)
        self.model.set_training(True)
        recorder = get_recorder()
        epoch_index = len(history.train_loss)
        with recorder.span("epoch", kind="epoch", epoch=epoch_index) as span:
            epoch_loss = 0.0
            epoch_correct = 0.0
            grad_norm = None
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                xb = x[idx]
                yb = labels[idx]
                if self.augment is not None:
                    xb = self.augment(xb, rng)
                logits = self.model.forward(xb)
                loss_value = self.loss.forward(logits, yb)
                self.model.zero_grad()
                self.model.backward(self.loss.backward())
                if self.grad_clip is not None:
                    grad_norm = clip_gradients(self.optimizer.params,
                                               self.grad_clip)
                self.optimizer.step()
                epoch_loss += loss_value * len(idx)
                epoch_correct += accuracy(logits, yb) * len(idx)
                history.steps += 1
            history.train_loss.append(epoch_loss / n)
            history.train_accuracy.append(epoch_correct / n)
            if recorder.enabled:
                # pre-clip global grad norm of the last batch; LR after it
                span.tags.update(
                    loss=history.train_loss[-1],
                    accuracy=history.train_accuracy[-1],
                    lr=self.optimizer.lr, grad_norm=grad_norm,
                    steps=-(-n // batch_size))

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int,
            batch_size: int = 64,
            rng: Optional[np.random.Generator] = None) -> TrainHistory:
        """Train for ``epochs`` epochs."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if x.shape[0] != labels.shape[0]:
            raise ValueError("x and labels disagree on batch dimension")
        rng = rng if rng is not None else np.random.default_rng(0)
        history = TrainHistory()
        for _ in range(epochs):
            self.train_epoch(x, labels, batch_size, rng, history)
        self.model.set_training(False)
        return history
