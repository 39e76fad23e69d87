"""Layer abstract base class for the numpy DNN substrate."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Layer:
    """Base class for all layers.

    A layer is a differentiable function with optional trainable
    parameters.  Subclasses implement :meth:`forward` and
    :meth:`backward`; the backward pass must (a) return the gradient
    with respect to the layer input and (b) *accumulate* parameter
    gradients into ``Parameter.grad``.

    The ``training`` flag switches behaviour for layers such as dropout
    and batch normalization.  Layers cache whatever they need from the
    forward pass; a backward call is only valid after a forward call.
    """

    #: Names of the instance attributes that hold forward-pass caches.
    #: Subclasses list theirs so the pipelined trainer can keep several
    #: inputs in flight: it snapshots the cache after an input's
    #: forward through the layer and restores it just before that
    #: input's backward (other inputs overwrite the live cache in
    #: between — exactly the per-input intermediate-result storage the
    #: paper's memory subarrays provide).
    CACHE_ATTRS: tuple = ()

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__

    # -- interface -----------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``grad_output`` back; returns grad w.r.t. input."""
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Like :meth:`backward`, but for callers that discard the
        input gradient (the layer's input is the network input).

        Defaults to :meth:`backward`; layers whose input gradient costs
        a product of its own override it to skip that work.
        """
        self.backward(grad_output)

    def parameters(self) -> List[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return []

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output given a (batch-free) input shape.

        Used by the accelerator compiler to size crossbar resources
        without running data through the network.  Shapes exclude the
        batch dimension.
        """
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------
    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def parameter_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(p.size for p in self.parameters())

    def save_cache(self) -> dict:
        """Snapshot the forward-pass cache (see :data:`CACHE_ATTRS`)."""
        return {name: getattr(self, name) for name in self.CACHE_ATTRS}

    def load_cache(self, cache: dict) -> None:
        """Restore a cache snapshot taken by :meth:`save_cache`."""
        for name in self.CACHE_ATTRS:
            setattr(self, name, cache[name])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StatelessLayer(Layer):
    """Base class for layers with no trainable parameters."""

    def parameters(self) -> List[Parameter]:
        return []
