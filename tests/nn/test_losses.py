"""Tests for losses and metrics."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy, accuracy, softmax


class TestSoftmax:
    def test_sums_to_one(self, rng):
        probs = softmax(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    def test_numerically_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0, :2], 0.5, atol=1e-6)

    def test_invariant_to_shift(self, rng):
        logits = rng.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0),
                                   rtol=1e-6)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.array([[20.0, 0.0, 0.0]], dtype=np.float32)
        assert loss_fn.forward(logits, np.array([0])) < 1e-6

    def test_uniform_prediction_is_log_classes(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10), dtype=np.float32)
        labels = np.arange(4)
        assert loss_fn.forward(logits, labels) == pytest.approx(
            np.log(10), rel=1e-5)

    def test_gradient_matches_probs_minus_onehot(self, rng):
        loss_fn = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        labels = np.array([0, 2, 4])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(3), labels] = 1
        np.testing.assert_allclose(grad, (probs - onehot) / 3,
                                   rtol=1e-4, atol=1e-6)

    def test_gradient_finite_difference(self, rng):
        loss_fn = SoftmaxCrossEntropy(label_smoothing=0.1)
        logits = rng.normal(size=(2, 4)).astype(np.float64)
        labels = np.array([1, 3])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-5
        for i in range(2):
            for j in range(4):
                logits[i, j] += eps
                plus = loss_fn.forward(logits, labels)
                logits[i, j] -= 2 * eps
                minus = loss_fn.forward(logits, labels)
                logits[i, j] += eps
                numeric = (plus - minus) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_label_smoothing_raises_floor(self):
        smooth = SoftmaxCrossEntropy(label_smoothing=0.2)
        sharp = SoftmaxCrossEntropy()
        logits = np.array([[50.0, 0.0, 0.0]], dtype=np.float32)
        labels = np.array([0])
        assert smooth.forward(logits, labels) > sharp.forward(logits, labels)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(3,
                                          dtype=int))

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy(label_smoothing=1.0)


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))
