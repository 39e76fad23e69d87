"""Supervised training loop with the paper's batch-update semantics.

Weight updates are applied once per batch — gradients from the whole
batch accumulate first (Sec. III-A-2: "The weight updates due to each
input are stored and only applied at the end of a batch").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.losses import Loss, SoftmaxCrossEntropy, accuracy
from repro.nn.network import Sequential
from repro.nn.optim import Optimizer
from repro.telemetry import NULL_COLLECTOR, Collector
from repro.utils.validation import check_positive


@dataclass
class TrainHistory:
    """Per-batch loss trace."""

    batch_losses: List[float] = field(default_factory=list)

    def mean_loss(self, last: int = 10) -> float:
        """Mean loss over the last ``last`` batches (``last >= 1``)."""
        check_positive("last", last)
        if not self.batch_losses:
            raise ValueError("no batches recorded")
        return float(np.mean(self.batch_losses[-last:]))


def iterate_batches(
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """Yield (inputs, labels) batches, optionally shuffled.

    The final short batch is kept (the pipeline model accounts for
    partial batches separately).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be > 0, got {batch_size}")
    count = images.shape[0]
    if labels.shape[0] != count:
        raise ValueError(
            f"images ({count}) and labels ({labels.shape[0]}) disagree"
        )
    order = np.arange(count)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, count, batch_size):
        index = order[start : start + batch_size]
        yield images[index], labels[index]


def train_classifier(
    network: Sequential,
    optimizer: Optimizer,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int = 1,
    batch_size: int = 32,
    loss: Optional[Loss] = None,
    rng: Optional[np.random.Generator] = None,
    collector: Optional[Collector] = None,
) -> TrainHistory:
    """Train a classifier with batch-synchronous updates.

    Parameters
    ----------
    network, optimizer:
        The model and its optimizer (which must manage the model's
        parameters).
    images, labels:
        Full training set, NCHW (or flat) images with integer labels.
    collector:
        Optional :class:`repro.telemetry.Collector` (a scope is a
        ``Collector`` over its root's store): records
        ``epochs``/``batches``/``samples`` counters and a per-epoch
        ``epoch[<i>]`` timing span.
    """
    loss = loss or SoftmaxCrossEntropy()
    tel = collector if collector is not None else NULL_COLLECTOR
    history = TrainHistory()
    for epoch in range(epochs):
        with tel.span(f"epoch[{epoch}]"):
            for batch_images, batch_labels in iterate_batches(
                images, labels, batch_size, rng=rng
            ):
                network.zero_grad()
                value = network.train_step(batch_images, batch_labels, loss)
                optimizer.step()
                history.batch_losses.append(value)
                tel.count("batches", 1)
                tel.count("samples", int(batch_images.shape[0]))
        tel.count("epochs", 1)
    return history


def evaluate_classifier(
    network: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of ``network`` on a labelled set (inference mode)."""
    if images.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0
    for batch_images, batch_labels in iterate_batches(
        images, labels, batch_size
    ):
        logits = network.forward(batch_images, training=False)
        correct += int(
            round(accuracy(logits, batch_labels) * batch_labels.shape[0])
        )
    return correct / images.shape[0]
