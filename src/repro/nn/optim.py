"""Optimizers: plain/momentum SGD and Adam.

PipeLayer's training semantics are batch-synchronous — gradients from
each example in a batch accumulate and the weight update is applied
once per batch (Sec. III-A-2).  The optimizers here consume whatever
has been accumulated in ``Parameter.grad`` when ``step`` is called, so
the same machinery serves per-batch and per-step updates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.validation import check_positive


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset accumulated gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        check_positive("lr", lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for parameter in self.parameters:
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.value
            if self.momentum:
                velocity = self._velocity.setdefault(
                    id(parameter), np.zeros_like(parameter.value)
                )
                velocity *= self.momentum
                velocity -= self.lr * grad
                parameter.value += velocity
            else:
                parameter.value -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (DCGAN's published recipe: lr=2e-4, beta1=0.5)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 2e-4,
        beta1: float = 0.5,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        check_positive("lr", lr)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        check_positive("eps", eps)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._first: Dict[int, np.ndarray] = {}
        self._second: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter in self.parameters:
            key = id(parameter)
            first = self._first.setdefault(key, np.zeros_like(parameter.value))
            second = self._second.setdefault(
                key, np.zeros_like(parameter.value)
            )
            grad = parameter.grad
            first *= self.beta1
            first += (1.0 - self.beta1) * grad
            second *= self.beta2
            second += (1.0 - self.beta2) * grad * grad
            corrected_first = first / bias1
            corrected_second = second / bias2
            parameter.value -= (
                self.lr * corrected_first / (np.sqrt(corrected_second) + self.eps)
            )
