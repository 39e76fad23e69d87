"""Trainable parameter container for the numpy DNN substrate."""

from __future__ import annotations

from typing import Optional

import numpy as np


class Parameter:
    """A trainable tensor and its accumulated gradient.

    The training loop in :mod:`repro.nn.optim` reads ``value`` and
    ``grad`` and writes updated values back.  Layers are responsible for
    accumulating into ``grad`` during their backward pass (accumulation,
    not overwrite, mirrors the paper's batched weight update: per-input
    gradients are summed across a batch and applied once at batch end).
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        """Shape of the underlying value array."""
        return self.value.shape

    @property
    def size(self) -> int:
        """Number of scalar weights."""
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def copy_from(self, other: "Parameter") -> None:
        """Copy another parameter's value (used by ReGAN's duplicated D)."""
        if other.value.shape != self.value.shape:
            raise ValueError(
                f"shape mismatch: {other.value.shape} vs {self.value.shape}"
            )
        np.copyto(self.value, other.value)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def total_parameter_count(parameters) -> int:
    """Sum of ``size`` over an iterable of parameters."""
    return sum(p.size for p in parameters)


def flatten_parameters(parameters) -> np.ndarray:
    """Concatenate all parameter values into one flat vector."""
    arrays = [p.value.ravel() for p in parameters]
    if not arrays:
        return np.zeros(0)
    return np.concatenate(arrays)


def load_flat_parameters(parameters, flat: np.ndarray) -> None:
    """Inverse of :func:`flatten_parameters` — load values in place."""
    flat = np.asarray(flat, dtype=np.float64)
    offset = 0
    for parameter in parameters:
        count = parameter.size
        chunk = flat[offset : offset + count]
        if chunk.size != count:
            raise ValueError("flat vector too short for parameter list")
        np.copyto(parameter.value, chunk.reshape(parameter.value.shape))
        offset += count
    if offset != flat.size:
        raise ValueError(
            f"flat vector has {flat.size} entries, parameters need {offset}"
        )


class ParameterSnapshot:
    """Frozen copy of a parameter list, restorable later.

    PipeLayer applies weight updates only at batch boundaries; the
    snapshot utility lets tests and the pipeline simulator hold the
    "weights at start of batch" while gradients accumulate.
    """

    def __init__(self, parameters) -> None:
        self._parameters = list(parameters)
        self._values = [p.value.copy() for p in self._parameters]

    def restore(self) -> None:
        """Write the stored values back into the live parameters."""
        for parameter, value in zip(self._parameters, self._values):
            np.copyto(parameter.value, value)

    def max_abs_delta(self) -> float:
        """Largest absolute change since the snapshot was taken."""
        deltas = [
            float(np.max(np.abs(p.value - v))) if p.size else 0.0
            for p, v in zip(self._parameters, self._values)
        ]
        return max(deltas, default=0.0)
