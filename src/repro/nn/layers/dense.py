"""Fully-connected (inner product) layer — Eq. (2) of the paper."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.engine import MatmulEngine, run_engine
from repro.nn.init import get_initializer, zeros
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, new_rng
from repro.utils.validation import check_positive


class Dense(Layer):
    """Inner-product layer: ``y = x W + b``.

    Weight shape is ``(in_features, out_features)`` so that the weight
    matrix maps directly onto a crossbar: word lines carry ``x``
    (``in_features`` of them) and each bit line holds one output column
    — the mapping of Fig. 3(a, b).

    Parameters
    ----------
    in_features, out_features:
        Vector sizes ``m`` and ``n`` of Eq. (2).
    use_bias:
        Include the additive bias vector ``b``.
    initializer:
        Name of a weight initializer from :mod:`repro.nn.init`.
    engine:
        Optional :class:`~repro.nn.engine.MatmulEngine` used for the
        forward matmul (e.g. the ReRAM crossbar simulator).  Backward
        always uses exact arithmetic: PipeLayer computes weight updates
        digitally from buffered activations.
    """

    CACHE_ATTRS = ("_inputs",)


    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        initializer: str = "he_normal",
        engine: Optional[MatmulEngine] = None,
        rng: RngLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias
        self.engine = engine

        init = get_initializer(initializer)
        rng = new_rng(rng)
        self.weight = Parameter(
            init((in_features, out_features), rng=rng),
            name=f"{self.name}.weight",
        )
        self.bias = (
            Parameter(zeros((out_features,)), name=f"{self.name}.bias")
            if use_bias
            else None
        )
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input (batch, {self.in_features}), "
                f"got {inputs.shape}"
            )
        self._inputs = inputs
        outputs = run_engine(self.engine, inputs, self.weight.value)
        if self.bias is not None:
            outputs = outputs + self.bias.value
        return outputs

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._inputs is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += self._inputs.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grad_output)
        return np.asarray(grad_output, dtype=np.float64) @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        flat = int(np.prod(input_shape))
        if flat != self.in_features:
            raise ValueError(
                f"{self.name}: input shape {input_shape} has {flat} features,"
                f" expected {self.in_features}"
            )
        return (self.out_features,)

    def __repr__(self) -> str:
        return (
            f"Dense({self.in_features}->{self.out_features}, "
            f"bias={self.use_bias})"
        )
