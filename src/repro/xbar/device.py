"""ReRAM device model: conductance states, programming/read noise, faults.

A ReRAM cell stores information as a resistance state (Sec. II-B).  The
model quantifies what the architecture papers assume: a cell holds one
of ``2**cell_bits`` conductance levels between ``g_min = 1/r_off`` and
``g_max = 1/r_on``; programming hits the target level with log-normal
multiplicative error; a small fraction of cells are stuck at the lowest
or highest state (fabrication defects).

Default constants follow the metal-oxide RRAM literature the paper
cites (Wong et al., Proc. IEEE 2012): ``R_on = 10 kΩ``,
``R_off = 1 MΩ``, 4-bit multi-level cells (PipeLayer's choice).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_in_range, check_non_negative, check_positive


@dataclass(frozen=True)
class DeviceConfig:
    """Electrical and statistical parameters of one ReRAM cell.

    Parameters
    ----------
    r_on, r_off:
        Low / high resistance states in ohms; conductance range is
        ``[1/r_off, 1/r_on]``.
    cell_bits:
        Bits stored per cell; the cell exposes ``2**cell_bits`` evenly
        spaced conductance levels.
    program_noise:
        Log-normal sigma of multiplicative programming error on the
        *level-conductance span* (0 disables noise).
    read_noise:
        Gaussian sigma of per-read output noise, expressed in units of
        one conductance level per column (0 disables).
    stuck_off_rate, stuck_on_rate:
        Fraction of cells stuck at the lowest / highest level.
    upset_rate:
        Probability, per read and per column output, of a *transient*
        soft error: the analog partial sum is hit by an impulse drawn
        uniformly from ``±upset_magnitude`` level units before the ADC
        digitises it (a radiation-/disturb-style read upset; gone on
        the next read, unlike a stuck cell).  0 disables.
    upset_magnitude:
        Amplitude bound of one upset impulse in conductance-level
        units.  ``None`` defaults to ``levels - 1`` — one full cell's
        worth of current, the analog equivalent of a flipped cell.
    drift_nu:
        Conductance-drift exponent: the signal read at the ``k``-th
        read event since programming is scaled by ``(1 + k) ** -nu``
        (metal-oxide RRAM relaxation, with read events standing in for
        elapsed time).  Reprogramming refreshes the cells and resets
        the clock.  0 disables.
    wire_resistance:
        Word/bit-line wire resistance per cell segment (ohms).  A
        first-order static IR-drop model: the effective conductance of
        the cell at (row i, column j) is degraded by the series wire
        resistance of its current path, ``g / (1 + g * r_wire *
        (i + j))``.  0 disables the effect.
    endurance:
        Write cycles a cell survives before wear-out (used by the
        lifetime analysis in :mod:`repro.arch.endurance`; it does not
        alter functional behaviour here).
    """

    r_on: float = 1e4
    r_off: float = 1e6
    cell_bits: int = 4
    program_noise: float = 0.0
    read_noise: float = 0.0
    stuck_off_rate: float = 0.0
    stuck_on_rate: float = 0.0
    upset_rate: float = 0.0
    upset_magnitude: Optional[float] = None
    drift_nu: float = 0.0
    wire_resistance: float = 0.0
    endurance: float = 1e9

    def __post_init__(self) -> None:
        check_positive("r_on", self.r_on)
        check_positive("r_off", self.r_off)
        if self.r_off <= self.r_on:
            raise ValueError(
                f"r_off ({self.r_off}) must exceed r_on ({self.r_on})"
            )
        check_positive("cell_bits", self.cell_bits)
        check_non_negative("program_noise", self.program_noise)
        check_non_negative("read_noise", self.read_noise)
        check_in_range("stuck_off_rate", self.stuck_off_rate, 0.0, 1.0)
        check_in_range("stuck_on_rate", self.stuck_on_rate, 0.0, 1.0)
        if self.stuck_off_rate + self.stuck_on_rate > 1.0:
            raise ValueError("stuck rates sum to more than 1")
        check_in_range("upset_rate", self.upset_rate, 0.0, 1.0)
        if self.upset_magnitude is not None:
            check_non_negative("upset_magnitude", self.upset_magnitude)
        check_non_negative("drift_nu", self.drift_nu)
        check_non_negative("wire_resistance", self.wire_resistance)
        check_positive("endurance", self.endurance)

    @property
    def g_min(self) -> float:
        """Conductance of the fully-off state (siemens)."""
        return 1.0 / self.r_off

    @property
    def g_max(self) -> float:
        """Conductance of the fully-on state (siemens)."""
        return 1.0 / self.r_on

    @property
    def levels(self) -> int:
        """Number of programmable conductance levels."""
        return 2**self.cell_bits

    @property
    def g_step(self) -> float:
        """Conductance difference between adjacent levels."""
        return (self.g_max - self.g_min) / (self.levels - 1)

    @property
    def upset_levels(self) -> float:
        """Amplitude bound of one transient upset, in level units."""
        if self.upset_magnitude is not None:
            return self.upset_magnitude
        return float(self.levels - 1)

    @property
    def has_transient_faults(self) -> bool:
        """Whether any per-read (non-static) fault effect is enabled."""
        return self.upset_rate > 0.0 or self.drift_nu > 0.0

    def ideal(self) -> "DeviceConfig":
        """Copy with all non-idealities disabled."""
        return replace(
            self,
            program_noise=0.0,
            read_noise=0.0,
            stuck_off_rate=0.0,
            stuck_on_rate=0.0,
            upset_rate=0.0,
            drift_nu=0.0,
            wire_resistance=0.0,
        )


#: Upset gaps (then amplitudes) drawn per refill of the upset stream.
_UPSET_BLOCK = 256

#: What the upset stream returns when upsets are disabled.
_NO_UPSETS = (np.zeros(0, dtype=np.int64), np.zeros(0))


def apply_ir_drop(conductance: np.ndarray, wire_resistance: float) -> np.ndarray:
    """First-order static IR-drop degradation of a conductance matrix.

    The cell at (row ``i``, column ``j``) sees a series wire resistance
    proportional to its Manhattan distance from the word-line driver
    (row axis) and the bit-line sense amplifier (column axis):
    ``r_series = wire_resistance * (i + j)``.  The effective
    conductance of the cell-plus-wires path is
    ``g / (1 + g * r_series)`` — always a *reduction*, growing with
    distance, the characteristic accuracy-eating gradient of large
    crossbars.
    """
    if wire_resistance < 0:
        raise ValueError(
            f"wire_resistance must be >= 0, got {wire_resistance}"
        )
    if wire_resistance == 0.0:
        return conductance
    rows, cols = conductance.shape
    distance = np.arange(rows)[:, None] + np.arange(cols)[None, :]
    series = wire_resistance * distance
    return conductance / (1.0 + conductance * series)


class DeviceModel:
    """Programs level matrices into (noisy) conductance matrices.

    Every stochastic effect draws from its **own child stream** of the
    constructor seed (programming noise, stuck-fault placement, read
    noise, transient upsets).  That makes the effects orthogonal knobs:
    enabling or re-rating one of them never shifts another's draws, so
    a reliability sweep at a fixed seed varies exactly one thing at a
    time — and it is what keeps the loop and vectorized engine
    backends bit-identical, because each backend may interleave the
    effects differently in code as long as it consumes each *stream*
    in the same per-read order.  Read noise draws one normal per
    output; the upset stream draws only the upsets that fire (see
    :meth:`transient_upset_levels`), so its consumption is independent
    of how the reads are split into calls.
    """

    def __init__(self, config: DeviceConfig, rng: RngLike = None) -> None:
        self.config = config
        (
            self._program_rng,
            self._fault_rng,
            self._read_rng,
            self._transient_rng,
        ) = spawn_rngs(rng, 4)
        self._fault_draw: Optional[np.ndarray] = None
        #: Read events since the last program — the drift time base.
        self.read_events = 0
        #: Outputs the upset stream has covered so far.
        self._upset_cursor = 0
        #: Absolute output positions and amplitudes of the drawn upsets
        #: not yet handed out (the tail of the current block).
        self._upset_at = np.zeros(0, dtype=np.int64)
        self._upset_amplitude = np.zeros(0)

    def apply_stuck_faults(self, levels: np.ndarray) -> np.ndarray:
        """Force stuck-at cells to their defect level.

        Fault *placement* is a property of the physical array, not of a
        write operation: the mask is drawn once (at the first program)
        and reused for every subsequent reprogram, so training loops
        that rewrite weights each batch face the same broken cells
        throughout — the situation noise-aware training adapts to.
        Reprogramming at a different shape is a physical impossibility
        (defects cannot move), so it raises instead of redrawing.
        """
        config = self.config
        if config.stuck_off_rate == 0.0 and config.stuck_on_rate == 0.0:
            return levels
        if self._fault_draw is None:
            self._fault_draw = self._fault_rng.random(levels.shape)
        elif self._fault_draw.shape != levels.shape:
            raise ValueError(
                f"stuck-fault mask was drawn for shape "
                f"{self._fault_draw.shape}; reprogramming at "
                f"{levels.shape} would silently move physical defects"
            )
        draw = self._fault_draw
        out = levels.copy()
        out[draw < config.stuck_off_rate] = 0
        out[draw > 1.0 - config.stuck_on_rate] = config.levels - 1
        return out

    def fault_census(self) -> dict:
        """Stuck-cell counts of the persistent mask (JSON-able).

        Zeros until the first program draws the mask.
        """
        config = self.config
        if self._fault_draw is None or (
            config.stuck_off_rate == 0.0 and config.stuck_on_rate == 0.0
        ):
            return {"cells": 0, "stuck_off": 0, "stuck_on": 0}
        draw = self._fault_draw
        return {
            "cells": int(draw.size),
            "stuck_off": int(np.count_nonzero(draw < config.stuck_off_rate)),
            "stuck_on": int(
                np.count_nonzero(draw > 1.0 - config.stuck_on_rate)
            ),
        }

    def program_levels(self, levels: np.ndarray) -> np.ndarray:
        """Effective stored levels after faults, noise, clip, IR drop.

        ``levels`` must be integers in ``[0, levels - 1]``; the result
        is the float level matrix the cell array actually holds — the
        computational domain of every read-path evaluation.  For an
        ideal device the result is *exactly* integer-valued (no
        conductance-domain round trip), which is what lets both
        evaluation backends produce bit-identical MVMs regardless of
        summation order.
        """
        levels = np.asarray(levels)
        config = self.config
        if np.any((levels < 0) | (levels >= config.levels)):
            raise ValueError(
                f"levels must be in [0, {config.levels - 1}]"
            )
        levels = self.apply_stuck_faults(levels)
        effective = levels.astype(np.float64)
        if config.program_noise > 0.0:
            factor = self._program_rng.lognormal(
                mean=0.0, sigma=config.program_noise, size=effective.shape
            )
            effective = effective * factor
        # A (re)program refreshes the cells: the drift clock restarts.
        self.read_events = 0
        effective = np.clip(effective, 0.0, float(config.levels - 1))
        if config.wire_resistance > 0.0:
            conductance = apply_ir_drop(
                config.g_min + effective * config.g_step,
                config.wire_resistance,
            )
            effective = (conductance - config.g_min) / config.g_step
        return effective

    def program(self, levels: np.ndarray) -> np.ndarray:
        """Convert integer levels to conductances with programming error.

        ``levels`` must be integers in ``[0, levels - 1]``.  The
        returned conductances are clipped to the physical window.
        """
        config = self.config
        effective = self.program_levels(levels)
        return config.g_min + effective * config.g_step

    def read_noise_levels(self, shape, reads: int = 1) -> np.ndarray:
        """Additive per-read output noise, in conductance-level units.

        The sigma is ``read_noise`` level units per column output (the
        domain the crossbar works in after baseline correction);
        ``reads`` independent reads accumulate as ``sqrt(reads)``.
        """
        config = self.config
        if config.read_noise == 0.0:
            return np.zeros(shape)
        sigma = config.read_noise * np.sqrt(reads)
        return self._read_rng.normal(0.0, sigma, size=shape)

    def transient_upset_levels(self, shape) -> Tuple[np.ndarray, np.ndarray]:
        """Per-read soft-error impulses, in conductance-level units.

        Each output element is upset with probability ``upset_rate``;
        an upset adds a uniform impulse in ``±upset_levels``.  Returns
        ``(positions, amplitudes)`` for the next ``prod(shape)`` outputs
        of this model's read stream: the flat C-order indices into
        ``shape`` of the upsets that fire (strictly increasing) and
        their impulses.  Callers scatter-add them into their outputs.

        The stream draws only the upsets that fire: geometric gaps
        between consecutive upsets, then one uniform per upset for its
        amplitude ``(2u - 1) * upset_levels``, both in blocks of
        :data:`_UPSET_BLOCK`.  The unused tail of a block and the
        absolute output position carry across calls, so the upsets an
        output sees depend only on its position in the stream, never on
        how the reads are split into calls or chunks — what lets the
        vectorized backend's stacked calls equal the loop backend's
        sequential per-sub-cycle calls.
        """
        config = self.config
        if config.upset_rate == 0.0:
            return _NO_UPSETS
        start = self._upset_cursor
        end = start + int(np.prod(shape))
        self._upset_cursor = end
        positions, amplitudes = [], []
        while True:
            due = int(np.searchsorted(self._upset_at, end))
            positions.append(self._upset_at[:due] - start)
            amplitudes.append(self._upset_amplitude[:due])
            if due < self._upset_at.size:
                break
            # Every drawn upset falls before ``end``: draw the next block.
            last = self._upset_at[-1] if self._upset_at.size else -1
            rng = self._transient_rng
            self._upset_at = last + np.cumsum(
                rng.geometric(config.upset_rate, _UPSET_BLOCK)
            )
            self._upset_amplitude = (
                2.0 * rng.random(_UPSET_BLOCK) - 1.0
            ) * config.upset_levels
        self._upset_at = self._upset_at[due:]
        self._upset_amplitude = self._upset_amplitude[due:]
        return np.concatenate(positions), np.concatenate(amplitudes)

    def drift_factors(self, events: int) -> np.ndarray:
        """Signal decay factors for the next ``events`` read events.

        Returns ``(1 + k) ** -drift_nu`` for each upcoming read event
        ``k`` (counted since the last program) and advances the drift
        clock — deterministic, no stream consumed.  With drift disabled
        the factors are all 1; neither engine backend calls this then,
        so the clock only counts reads while drift is on.
        """
        if events < 0:
            raise ValueError(f"events must be >= 0, got {events}")
        ticks = self.read_events + np.arange(events, dtype=np.float64)
        self.read_events += events
        if self.config.drift_nu == 0.0:
            return np.ones(events)
        return (1.0 + ticks) ** (-self.config.drift_nu)


#: Device used by PipeLayer-style experiments (4-bit MLC, ideal).
PIPELAYER_DEVICE = DeviceConfig(r_on=1e4, r_off=1e6, cell_bits=4)

#: A pessimistic realistic device for noise-sensitivity studies.
NOISY_DEVICE = DeviceConfig(
    r_on=1e4,
    r_off=1e6,
    cell_bits=4,
    program_noise=0.05,
    read_noise=0.2,
    stuck_off_rate=0.001,
    stuck_on_rate=0.001,
)

#: Transient-fault device for soft-error/reliability studies: clean
#: cells and writes, but occasional per-read upsets and mild drift.
SOFT_ERROR_DEVICE = DeviceConfig(
    r_on=1e4,
    r_off=1e6,
    cell_bits=4,
    upset_rate=1e-3,
    drift_nu=0.01,
)
