"""Loss functions with analytic gradients.

The GAN losses follow the paper's description (Sec. III-B-2): the
discriminator is trained with label '1' on real samples and '0' on
generated ones; the generator is trained with the *inaccurate* label
'1' on generated samples (the non-saturating GAN loss).
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Base class: ``forward`` returns a scalar, ``backward`` the gradient."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the predictions."""
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy over integer class labels.

    ``predictions`` are raw logits ``(batch, classes)``; ``targets`` are
    integer labels ``(batch,)``.  The combined gradient is the usual
    numerically-stable ``softmax - one_hot``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    @staticmethod
    def softmax(logits: np.ndarray) -> np.ndarray:
        """Numerically stable softmax along the last axis."""
        logits = np.asarray(logits, dtype=np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets)
        if predictions.ndim != 2:
            raise ValueError(
                f"logits must be (batch, classes), got {predictions.shape}"
            )
        if targets.shape != (predictions.shape[0],):
            raise ValueError(
                f"targets must be (batch,), got {targets.shape}"
            )
        if np.any((targets < 0) | (targets >= predictions.shape[1])):
            raise ValueError("targets contain out-of-range class labels")
        self._probs = self.softmax(predictions)
        self._targets = targets.astype(np.int64)
        batch = predictions.shape[0]
        picked = self._probs[np.arange(batch), self._targets]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward before forward")
        batch = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(batch), self._targets] -= 1.0
        return grad / batch


class BinaryCrossEntropyWithLogits(Loss):
    """Sigmoid + binary cross-entropy on raw logits.

    ``predictions`` are logits of any shape; ``targets`` are the same
    shape with values in ``[0, 1]`` (the paper's '1'/'0' labels).  The
    fused formulation is numerically stable for large |logit|.
    """

    def __init__(self) -> None:
        self._logits: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if logits.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: {logits.shape} vs {targets.shape}"
            )
        if np.any((targets < 0) | (targets > 1)):
            raise ValueError("targets must lie in [0, 1]")
        self._logits = logits
        self._targets = targets
        # max(x, 0) - x*t + log(1 + exp(-|x|))
        loss = (
            np.maximum(logits, 0.0)
            - logits * targets
            + np.log1p(np.exp(-np.abs(logits)))
        )
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._logits is None or self._targets is None:
            raise RuntimeError("backward before forward")
        probs = _stable_sigmoid(self._logits)
        return (probs - self._targets) / self._logits.size


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic sigmoid."""
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_v = np.exp(values[~positive])
    out[~positive] = exp_v / (1.0 + exp_v)
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy from logits and integer labels."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"incompatible shapes: logits {logits.shape}, labels {labels.shape}"
        )
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty batch")
    return float(np.mean(logits.argmax(axis=1) == labels))
