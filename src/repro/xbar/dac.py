"""Input drivers: weighted spike coding and analog DAC (Sec. III-A-3(a)).

PipeLayer's *spike driver* "converts the input to a sequence of
spikes" and uses a *weighted spike coding* scheme: an ``a``-bit input
integer is presented bit-serially over ``a`` sub-cycles, the bit of
significance ``j`` driving the word line during sub-cycle ``j``; the
digitised column outputs are shifted by ``j`` and accumulated.  This
replaces a power-hungry multi-level DAC with binary drive — the paper
credits it with reduced area and energy (after ISAAC [9]).

:class:`SpikeCoder` performs the decomposition and the matching
shift-accumulate; :class:`RateCoder` is the unary baseline it beats and
:class:`AnalogDAC` the alternative multi-level driver, which applies
the (quantized) value in a single sub-cycle.  All three share the
:class:`DriveCoder` interface: drive planes, per-plane weights, and one
recombination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class InputEncoding:
    """How activations are quantized before driving word lines.

    Parameters
    ----------
    bits:
        Activation resolution; values map to integers in
        ``[0, 2**bits - 1]`` over the calibrated range.
    """

    bits: int = 8

    def __post_init__(self) -> None:
        check_positive("bits", self.bits)

    @property
    def max_int(self) -> int:
        """Largest representable activation integer."""
        return 2**self.bits - 1


class DriveCoder:
    """Word-line drive of one input sign: planes, weights, recombination.

    :meth:`decompose` turns a *non-negative integer* activation matrix
    into a stack of drive planes, one per sub-cycle, whose
    :attr:`plane_weights`-weighted sum is the integers again;
    :meth:`accumulate` applies the same weights to the per-plane array
    outputs (the digital shift-and-add).  The caller (the crossbar
    engine) handles sign by splitting into positive and negative
    streams, exactly as differential input drive would.
    """

    def __init__(
        self, encoding: InputEncoding, plane_weights: np.ndarray
    ) -> None:
        self.encoding = encoding
        #: Shift-and-add factor of each sub-cycle's plane.
        self.plane_weights = plane_weights

    @property
    def subcycles(self) -> int:
        """Sub-cycles (array reads) per MVM and input sign."""
        return len(self.plane_weights)

    def decompose(self, integers: np.ndarray) -> np.ndarray:
        """``(subcycles, *integers.shape)`` word-line drive planes."""
        integers = np.asarray(integers)
        if np.any(integers < 0) or np.any(integers > self.encoding.max_int):
            raise ValueError(
                f"drive integers must be in [0, {self.encoding.max_int}]"
            )
        return self._planes(integers.astype(np.int64))

    def _planes(self, integers: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulate(self, partials: Sequence[np.ndarray]) -> np.ndarray:
        """Recombine per-plane results: ``sum_j weight_j * partials[j]``."""
        if len(partials) != self.subcycles:
            raise ValueError(
                f"expected {self.subcycles} partials, got {len(partials)}"
            )
        total = np.zeros_like(np.asarray(partials[0], dtype=np.float64))
        for weight, partial in zip(self.plane_weights, partials):
            total = total + np.asarray(partial, dtype=np.float64) * weight
        return total


class SpikeCoder(DriveCoder):
    """Weighted spike (bit-serial) input coding.

    Plane ``j`` is bit ``j`` of every integer, LSB first, with values
    in ``{0.0, 1.0}`` and weight ``2**j``: one sub-cycle per input bit.
    """

    def __init__(self, encoding: InputEncoding) -> None:
        super().__init__(encoding, 2.0 ** np.arange(encoding.bits))

    def _planes(self, integers: np.ndarray) -> np.ndarray:
        shifts = np.arange(self.encoding.bits).reshape(
            (-1,) + (1,) * integers.ndim
        )
        return ((integers >> shifts) & 1).astype(np.float64)


class RateCoder(DriveCoder):
    """Unary (rate) spike coding: the baseline weighted coding beats.

    The integer activation is presented as that many unit spikes over
    ``2**bits - 1`` sub-cycles, all of weight 1 (plane ``j`` drives
    where ``value > j``).  Functionally equivalent to the weighted
    scheme, but a ``b``-bit input costs ``2**b - 1`` sub-cycles instead
    of ``b`` — the exponential-vs-linear gap that motivates PipeLayer's
    "weighted spike coding scheme to further reduce the area and energy
    overhead" (Sec. III-A-3(a)).
    """

    def __init__(self, encoding: InputEncoding) -> None:
        super().__init__(encoding, np.ones(encoding.max_int))

    def _planes(self, integers: np.ndarray) -> np.ndarray:
        thresholds = np.arange(self.encoding.max_int).reshape(
            (-1,) + (1,) * integers.ndim
        )
        return (integers > thresholds).astype(np.float64)


class AnalogDAC(DriveCoder):
    """Multi-level voltage driver: one sub-cycle, quantized amplitude.

    The integer activation drives the word line as an analog voltage
    proportional to its value (one plane, in integer units, weight 1);
    the full MVM completes in one sub-cycle at the cost of a
    ``bits``-bit DAC per word line.
    """

    def __init__(self, encoding: InputEncoding) -> None:
        super().__init__(encoding, np.ones(1))

    def _planes(self, integers: np.ndarray) -> np.ndarray:
        return integers[None].astype(np.float64)


def quantize_activations(
    values: np.ndarray, encoding: InputEncoding, max_abs: float
) -> Tuple[np.ndarray, float]:
    """Quantize signed activations onto the drive grid.

    Returns ``(signed, scale)``: ``signed`` is an integer-valued float64
    matrix in ``[-max_int, max_int]`` and ``signed * scale``
    approximates ``values``.  ``max_abs`` is the calibration amplitude;
    values beyond it clip (driver saturation).  The clip makes the one
    new buffer; the divide and the rounding run in place.
    """
    if max_abs <= 0:
        raise ValueError(f"max_abs must be > 0, got {max_abs}")
    scale = max_abs / encoding.max_int
    signed = np.clip(np.asarray(values, dtype=np.float64), -max_abs, max_abs)
    np.divide(signed, scale, out=signed)
    np.rint(signed, out=signed)
    return signed, scale

