"""Integrate-and-fire analog-to-digital conversion (Sec. III-A-3(b)).

PipeLayer digitises bit-line currents with an integrate-and-fire (I&F)
circuit feeding a counter: the column current charges a capacitor;
every time the integrated charge crosses a threshold the circuit fires
a spike and resets; the spike count is the digital value.  Functionally
that is a uniform quantizer of charge with a bounded count range, which
is what :func:`quantize_levels` implements — in *level units* (one
unit = the current of one conductance step under unit drive), so the
same transfer function serves any device configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ADCConfig:
    """Resolution and full-scale range of the I&F converter.

    Parameters
    ----------
    bits:
        Counter width; the output saturates at ``2**bits - 1`` counts.
    full_scale_levels:
        Analog input (in conductance-level units) that maps to the full
        count.  Integer column sums up to ``n`` convert without loss
        only on a unit grid (one count per level unit, so
        ``full_scale_levels == 2**bits - 1``) with ``2**bits - 1 >= n``
        — what :meth:`lossless_for` builds.
    """

    bits: int = 8
    full_scale_levels: float = 255.0

    def __post_init__(self) -> None:
        check_positive("bits", self.bits)
        check_positive("full_scale_levels", self.full_scale_levels)

    @property
    def max_count(self) -> int:
        """Largest representable spike count."""
        return 2**self.bits - 1

    @property
    def levels_per_count(self) -> float:
        """Analog level units represented by one spike."""
        return self.full_scale_levels / self.max_count

    @classmethod
    def lossless_for(cls, rows: int, cell_levels: int) -> "ADCConfig":
        """Config that digitises a column exactly (no quantization loss).

        A column of ``rows`` cells each holding up to ``cell_levels - 1``
        level units needs ``rows * (cell_levels - 1) + 1`` distinct
        counts under binary (0/1) word-line drive.
        """
        check_positive("rows", rows)
        check_positive("cell_levels", cell_levels)
        needed = rows * (cell_levels - 1)
        bits = max(1, int(np.ceil(np.log2(needed + 1))))
        # Full scale equals the max count so one count == one level unit
        # and integer inputs convert exactly.
        return cls(bits=bits, full_scale_levels=float(2**bits - 1))


def quantize_levels(level_values: np.ndarray, config: ADCConfig) -> np.ndarray:
    """The I&F transfer function, vectorized over any input shape.

    Values are clipped at the full scale (counter saturation) and
    floored at zero (the I&F cannot fire a negative spike), snapped to
    the count grid, then mapped back to level units.  Both the per-array
    loop path and the stacked vectorized backend apply exactly this
    function, so ADC quantization is bit-identical between them.  The
    clip writes a new array and every later step works in place on it:
    the input is never modified, and no other temporary is allocated.
    """
    level_values = np.asarray(level_values, dtype=np.float64)
    step = config.levels_per_count
    out = np.clip(
        level_values,
        0.0,
        config.full_scale_levels,
        out=np.empty_like(level_values),
    )
    out /= step
    np.rint(out, out=out)
    out *= step
    return out

