"""Convolution lowering: im2col / col2im and related shape arithmetic.

The paper's central observation (Sec. II-B, Fig. 3-4) is that a
convolution layer becomes a matrix-vector product once each receptive
field is unrolled into a vector — exactly the ``im2col`` transform.  The
DNN substrate (:mod:`repro.nn`) and the crossbar mapping
(:mod:`repro.core.mapping`) both build on these functions, so the
"kernel cuboid -> bit-line column" picture in Fig. 4 is literal code.

All image tensors are NCHW: ``(batch, channels, height, width)``,
with any strides (a ``Conv2D`` output is an NHWC-strided view).  Both
transforms are exact: ``im2col`` only moves data, and ``col2im`` adds
each pixel's contributions in ``(ky, kx)`` order on every call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output extent of a convolution along one axis."""
    check_positive("size", size)
    check_positive("kernel", kernel)
    check_positive("stride", stride)
    check_non_negative("pad", pad)
    padded = size + 2 * pad
    if padded < kernel:
        raise ValueError(
            f"kernel ({kernel}) larger than padded input ({padded})"
        )
    return (padded - kernel) // stride + 1


def pad_nchw(images: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor."""
    check_non_negative("pad", pad)
    if pad == 0:
        return images
    return np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )


def windows(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Read-only ``(N, C, out_h, out_w, kh, kw)`` view of the windows
    of an NCHW tensor (no padding), taken at ``stride``."""
    return np.lib.stride_tricks.sliding_window_view(
        images, (kernel_h, kernel_w), axis=(2, 3)
    )[:, :, ::stride, ::stride]


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Unroll sliding windows of an NCHW tensor into matrix columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h *
    kernel_w)``: one row per output pixel, one column per weight of one
    kernel.  Multiplying by a ``(C*kh*kw, out_channels)`` weight matrix
    yields the convolution — this is the yellow input bar of Fig. 4.
    The rows are gathered from the :func:`windows` view of the (padded)
    input in one copy, so the result is always a fresh C-order array.
    """
    if images.ndim != 4:
        raise ValueError(f"images must be NCHW, got shape {images.shape}")
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    fields = windows(pad_nchw(images, pad), kernel_h, kernel_w, stride)
    # (N, out_h, out_w, C, kh, kw) -> rows of receptive fields; the
    # one copy is this C-order gather.
    cols = fields.transpose(0, 2, 3, 1, 4, 5).copy()
    return cols.reshape(batch * out_h * out_w, channels * kernel_h * kernel_w)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into images.

    Overlapping windows accumulate, which makes this exactly the
    gradient of ``im2col`` — used by the convolution backward pass.
    One strided ``+=`` per kernel offset: a pixel's contributions add
    in ``(ky, kx)`` order.
    """
    batch, channels, height, width = image_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    expected_rows = batch * out_h * out_w
    expected_cols = channels * kernel_h * kernel_w
    if cols.shape != (expected_rows, expected_cols):
        raise ValueError(
            f"cols has shape {cols.shape}, expected "
            f"({expected_rows}, {expected_cols}) for image {image_shape}"
        )

    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad),
        dtype=cols.dtype,
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[
                :, :, ky, kx, :, :
            ]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def insert_zeros(images: np.ndarray, stride: int) -> np.ndarray:
    """Insert ``stride - 1`` zeros between input pixels (Fig. 7a).

    This is the fractional-stride trick: a transposed convolution with
    stride ``s`` equals an ordinary convolution over an input whose
    pixels have been spread out by ``s``.  For an ``(N, C, H, W)`` input
    the result is ``(N, C, (H-1)*s + 1, (W-1)*s + 1)``.
    """
    check_positive("stride", stride)
    if images.ndim != 4:
        raise ValueError(f"images must be NCHW, got shape {images.shape}")
    if stride == 1:
        return images
    batch, channels, height, width = images.shape
    out = np.zeros(
        (batch, channels, (height - 1) * stride + 1, (width - 1) * stride + 1),
        dtype=images.dtype,
    )
    out[:, :, ::stride, ::stride] = images
    return out
