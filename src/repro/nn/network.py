"""Sequential network container with full forward/backward support."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.losses import Loss
from repro.nn.parameter import Parameter


def backward_params(layers: Sequence[Layer], grad_output: np.ndarray) -> None:
    """Back-propagate through ``layers`` for parameter gradients only.

    The first layer with parameters runs its
    :meth:`~repro.nn.layers.base.Layer.backward_params` hook, and the
    layers in front of it run nothing: for a chain whose input
    gradient nobody reads.
    """
    first = next(
        (i for i, layer in enumerate(layers) if layer.parameters()),
        len(layers),
    )
    grad = grad_output
    for layer in reversed(layers[first + 1 :]):
        grad = layer.backward(grad)
    if first < len(layers):
        layers[first].backward_params(grad)


class Sequential:
    """A feed-forward stack of layers (Fig. 1's CONV/POOL/IP chain).

    Provides forward inference, back-propagation, and introspection
    hooks used by the accelerator compiler (layer list, per-layer output
    shapes, parameter census).
    """

    def __init__(
        self, layers: Sequence[Layer], name: str = "network"
    ) -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("network needs at least one layer")
        self.name = name

    # -- execution -------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run data through all layers in order."""
        outputs = inputs
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers; returns input gradient.

        Valid only after a forward pass; parameter gradients accumulate
        into each layer's parameters.
        """
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Back-propagate for parameter gradients only (see
        :func:`backward_params`); they are bit-identical to
        :meth:`backward`'s."""
        backward_params(self.layers, grad_output)

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)

    def train_step(
        self, inputs: np.ndarray, targets: np.ndarray, loss: Loss
    ) -> float:
        """Forward + loss + backward (no optimizer step, no zero_grad).

        Gradients accumulate, matching the paper's batched update: call
        this for every example/micro-batch in a batch, then apply the
        optimizer once.
        """
        outputs = self.forward(inputs, training=True)
        value = loss.forward(outputs, targets)
        self.backward_params(loss.backward())
        return value

    # -- introspection -----------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for layer in self.layers:
            layer.zero_grad()

    def parameter_count(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.parameters())

    def output_shapes(
        self, input_shape: Tuple[int, ...]
    ) -> List[Tuple[int, ...]]:
        """Per-layer output shapes for a given (batch-free) input shape."""
        shapes: List[Tuple[int, ...]] = []
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append(shape)
        return shapes

    def summary(self, input_shape: Tuple[int, ...]) -> str:
        """Human-readable per-layer table (name, output shape, params)."""
        lines = [f"{self.name}: input {tuple(input_shape)}"]
        shapes = self.output_shapes(input_shape)
        for layer, shape in zip(self.layers, shapes):
            lines.append(
                f"  {layer!r:<55s} out={shape} params={layer.parameter_count()}"
            )
        lines.append(f"  total parameters: {self.parameter_count()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)

    def __repr__(self) -> str:
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
