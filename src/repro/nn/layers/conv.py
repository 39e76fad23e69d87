"""2-D convolution layer — Eq. (1) of the paper, lowered via im2col."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.engine import MatmulEngine, run_engine
from repro.nn.init import get_initializer, zeros
from repro.nn.layers.base import Layer
from repro.nn.parameter import Parameter
from repro.utils.im2col import col2im, conv_output_size, im2col
from repro.utils.rng import RngLike, new_rng
from repro.utils.validation import check_non_negative, check_positive


class Conv2D(Layer):
    """Convolution layer over NCHW tensors.

    The forward pass lowers the input with ``im2col`` and multiplies by
    a ``(C*kh*kw, out_channels)`` weight matrix — the exact kernel
    mapping of Fig. 4: each kernel cuboid becomes one bit-line column,
    each receptive field one word-line input vector.

    Parameters
    ----------
    in_channels, out_channels:
        ``C_l`` and ``C_{l+1}`` of Eq. (1).
    kernel_size:
        Square kernel extent ``K_x = K_y``.
    stride, pad:
        Spatial stride and symmetric zero padding.
    engine:
        Optional matmul engine (ReRAM crossbar) for the forward pass.
    """

    CACHE_ATTRS = ("_cols", "_input_shape")


    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        use_bias: bool = True,
        initializer: str = "he_normal",
        engine: Optional[MatmulEngine] = None,
        rng: RngLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        check_positive("kernel_size", kernel_size)
        check_positive("stride", stride)
        check_non_negative("pad", pad)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.use_bias = use_bias
        self.engine = engine

        init = get_initializer(initializer)
        rng = new_rng(rng)
        self.weight = Parameter(
            init(
                (out_channels, in_channels, kernel_size, kernel_size),
                rng=rng,
            ),
            name=f"{self.name}.weight",
        )
        self.bias = (
            Parameter(zeros((out_channels,)), name=f"{self.name}.bias")
            if use_bias
            else None
        )
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    # -- helpers ---------------------------------------------------------
    def _weight_matrix(self) -> np.ndarray:
        """Lowered ``(C*kh*kw, out_channels)`` view of the kernel."""
        return self.weight.value.reshape(self.out_channels, -1).T

    # -- interface --------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (batch, {self.in_channels}, H, W), "
                f"got {inputs.shape}"
            )
        batch, _, height, width = inputs.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad)

        cols = im2col(inputs, self.kernel_size, self.kernel_size, self.stride, self.pad)
        self._cols = cols
        self._input_shape = inputs.shape

        out = run_engine(self.engine, cols, self._weight_matrix())
        if self.bias is not None:
            out = out + self.bias.value
        out = out.reshape(batch, out_h, out_w, self.out_channels)
        return out.transpose(0, 3, 1, 2)

    def _accumulate_grads(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns the gradient rows."""
        if self._cols is None or self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # (N, C_out, H, W) -> rows matching the im2col layout.
        grad_rows = grad_output.transpose(0, 2, 3, 1).reshape(
            -1, self.out_channels
        )
        grad_weight_matrix = self._cols.T @ grad_rows
        self.weight.grad += grad_weight_matrix.T.reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=0)
        return grad_rows

    def backward_params(self, grad_output: np.ndarray) -> None:
        self._accumulate_grads(grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_rows = self._accumulate_grads(grad_output)
        grad_cols = grad_rows @ self._weight_matrix().T
        return col2im(
            grad_cols,
            self._input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.pad,
        )

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ValueError(
                f"{self.name}: input shape {input_shape} incompatible with "
                f"{self.in_channels} input channels"
            )
        _, height, width = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad)
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.pad})"
        )
