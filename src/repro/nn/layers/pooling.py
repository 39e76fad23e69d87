"""Pooling layers (Sec. II-A: max POOL and average POOL).

PipeLayer realises max pooling with a register that keeps the running
maximum of a value sequence (Sec. III-A-3(c)); functionally that is the
windowed maximum implemented here.  Max pooling reads its windows
through a strided view of the input as it comes (a ``Conv2D`` output
is NHWC-strided), without first copying it to C order.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.layers.base import StatelessLayer
from repro.utils.im2col import windows
from repro.utils.validation import check_positive


class _Pool2D(StatelessLayer):
    """Square ``window`` pooling at ``stride`` (default: the window)."""

    def __init__(
        self,
        window: int,
        stride: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        check_positive("window", window)
        self.window = window
        self.stride = stride if stride is not None else window
        check_positive("stride", self.stride)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def _scatter(
        self,
        grad_output: np.ndarray,
        share: Callable[[int, int], np.ndarray],
    ) -> np.ndarray:
        """Input gradient: ``share(ky, kx)`` added at each window offset.

        The offsets add in ``(ky, kx)`` order, so where windows overlap
        every pixel accumulates its shares in the same order.
        """
        grad_input = np.zeros(self._input_shape)
        _, _, out_h, out_w = grad_output.shape
        for ky in range(self.window):
            for kx in range(self.window):
                grad_input[
                    :,
                    :,
                    ky : ky + self.stride * out_h : self.stride,
                    kx : kx + self.stride * out_w : self.stride,
                ] += share(ky, kx)
        return grad_input

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        out_h = (height - self.window) // self.stride + 1
        out_w = (width - self.window) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"{self.name}: window {self.window} too large for "
                f"input {input_shape}"
            )
        return (channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(window={self.window}, "
            f"stride={self.stride})"
        )


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping or strided square windows.

    The forward pass takes one ``argmax`` per window and reads the
    output at it, so the output is the window maximum bit for bit — up
    to the sign of a zero: on a ``-0.0``/``+0.0`` tie the first of the
    two in the window wins, where a ``max`` reduction may return either.
    No model here feeds ``-0.0`` into a pool (``ReLU`` writes ``+0.0``).
    The argmax, ``(N, C, oh, ow)`` indices into the flattened window,
    is the forward cache: ``backward`` routes each output gradient to
    its window's argmax.
    """

    CACHE_ATTRS = ("_argmax", "_input_shape")

    _argmax: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"{self.name}: expected NCHW, got {inputs.shape}")
        blocks = windows(inputs, self.window, self.window, self.stride)
        flat = blocks.reshape(*blocks.shape[:4], -1)
        self._argmax = flat.argmax(axis=-1)
        self._input_shape = inputs.shape
        return np.take_along_axis(flat, self._argmax[..., None], -1)[..., 0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return self._scatter(
            grad_output,
            lambda ky, kx: (self._argmax == ky * self.window + kx)
            * grad_output,
        )


class AvgPool2D(_Pool2D):
    """Average pooling over strided square windows."""

    CACHE_ATTRS = ("_input_shape",)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        if inputs.ndim != 4:
            raise ValueError(f"{self.name}: expected NCHW, got {inputs.shape}")
        blocks = windows(inputs, self.window, self.window, self.stride)
        self._input_shape = inputs.shape
        return blocks.mean(axis=(4, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        share = grad_output / (self.window * self.window)
        return self._scatter(grad_output, lambda ky, kx: share)
