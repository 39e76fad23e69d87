"""Shared utilities: RNG management, im2col, validation,
component-prefixed logging."""

from repro.utils.im2col import (
    col2im,
    conv_output_size,
    im2col,
    insert_zeros,
    pad_nchw,
)
from repro.utils.logging import configure as configure_logging
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "configure_logging",
    "get_logger",
    "new_rng",
    "spawn_rngs",
    "im2col",
    "col2im",
    "conv_output_size",
    "insert_zeros",
    "pad_nchw",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
