"""A single ReRAM crossbar array performing analog MVM (Fig. 3a-b).

The matrix is programmed into cell conductances; input signals drive
the word lines; the current at the end of each bit line is the result
of the matrix-vector multiplication (Sec. II-B).  The model works in
*level units* (one unit = the current of one conductance step under
unit word-line drive), with explicit conversion through the physical
conductance domain so that programming noise, stuck cells, read noise,
and ADC quantization all act where they do in the circuit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, new_rng
from repro.utils.validation import check_positive
# Reads call the transfer function through its module, so a wrapper
# installed on ``repro.xbar.adc.quantize_levels`` (the benchmark's
# per-layer timer) sees every array's conversions.
import repro.xbar.adc as adc_transfer
from repro.xbar.adc import ADCConfig
from repro.xbar.device import DeviceConfig, DeviceModel


class CrossbarArray:
    """One physical ``rows x cols`` array of programmable cells.

    Parameters
    ----------
    rows, cols:
        Physical word-line / bit-line counts.
    device:
        Cell electrical model.
    adc:
        Converter applied to every column read.  ``None`` selects a
        lossless converter for binary drive (sized for
        ``rows * (levels - 1)``).  Reads and conversions are counted by
        the engine's collector, not here.
    rng:
        Seed or generator for programming and read noise.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        device: DeviceConfig,
        adc: Optional[ADCConfig] = None,
        rng: RngLike = None,
    ) -> None:
        check_positive("rows", rows)
        check_positive("cols", cols)
        self.rows = rows
        self.cols = cols
        self.device = device
        self._model = DeviceModel(device, rng=new_rng(rng))
        if adc is None:
            adc = ADCConfig.lossless_for(rows, device.levels)
        self.adc = adc
        self._levels: Optional[np.ndarray] = None
        self._conductance: Optional[np.ndarray] = None
        #: Bit lines the last :meth:`program` wrote (the rest is padding).
        self.live_cols = 0

    # -- programming -------------------------------------------------------
    def program(self, levels: np.ndarray) -> None:
        """Write a level matrix into the array (with device noise).

        ``levels`` must be ``(rows, cols)`` integers in the cell's
        level range; smaller matrices may be passed and are placed in
        the top-left corner with the rest of the array at level 0.
        The column count passed in becomes :attr:`live_cols`, the bit
        lines :meth:`mvm` evaluates.
        """
        levels = np.asarray(levels)
        if levels.ndim != 2:
            raise ValueError(f"levels must be 2-D, got shape {levels.shape}")
        if levels.shape[0] > self.rows or levels.shape[1] > self.cols:
            raise ValueError(
                f"levels {levels.shape} exceed array ({self.rows}, {self.cols})"
            )
        full = np.zeros((self.rows, self.cols), dtype=np.int64)
        full[: levels.shape[0], : levels.shape[1]] = levels
        # The *level matrix* is the computational state: for an ideal
        # device it is exactly integer-valued, so both evaluation
        # backends compute bit-identical dot products no matter how
        # BLAS associates the sums.  The conductance matrix is derived
        # physical bookkeeping.
        self._levels = self._model.program_levels(full)
        self._levels.flags.writeable = False
        self._conductance = (
            self.device.g_min + self._levels * self.device.g_step
        )
        self.live_cols = int(levels.shape[1])

    @property
    def is_programmed(self) -> bool:
        """Whether the array holds a programmed matrix."""
        return self._levels is not None

    @property
    def conductance(self) -> np.ndarray:
        """The programmed conductance matrix (siemens), read-only view."""
        if self._conductance is None:
            raise RuntimeError("array has not been programmed")
        view = self._conductance.view()
        view.flags.writeable = False
        return view

    def read_noise_levels(self, shape) -> np.ndarray:
        """Draw per-read output noise from *this array's* stream.

        The explicit device-noise seam shared by both evaluation
        backends: one stacked draw of shape ``(subcycles, batch,
        live_cols)`` consumes the generator exactly like that many
        sequential per-subcycle draws, which is what makes the
        vectorized backend bit-identical to the loop path under a shared
        seed.  Padded bit lines are counted, not simulated: they draw
        nothing.
        """
        return self._model.read_noise_levels(shape)

    def transient_upset_levels(self, shape) -> Tuple[np.ndarray, np.ndarray]:
        """The soft-error upsets of the next ``prod(shape)`` outputs.

        ``(positions, amplitudes)`` from *this array's* own upset
        stream: flat C-order indices into ``shape`` and the impulse of
        each, which both backends scatter-add into the ``live_cols``
        bit lines they read.  The stream draws only the upsets that
        fire and carries its position across calls, so one stacked
        ``(subcycles, batch, live_cols)`` call sees the upsets of that
        many sequential per-subcycle calls; it is a dedicated child
        stream, so enabling upsets never shifts the read-noise draws.
        """
        return self._model.transient_upset_levels(shape)

    def drift_factors(self, events: int) -> np.ndarray:
        """Drift decay for the next ``events`` reads (advances the clock)."""
        return self._model.drift_factors(events)

    def fault_census(self) -> dict:
        """Stuck-cell counts of this array's persistent defect mask."""
        return self._model.fault_census()

    def effective_levels(self) -> np.ndarray:
        """Stored matrix in level units, including programming error.

        This is the exact matrix every read multiplies by — the tensor
        the vectorized backend stacks, and the basis of the engine's
        signed level sum (its collapsed full path and ``fast_linear``).
        """
        if self._levels is None:
            raise RuntimeError("array has not been programmed")
        return self._levels

    # -- evaluation -----------------------------------------------------------
    def mvm(self, drive: np.ndarray) -> np.ndarray:
        """Analog multiply-accumulate for a batch of word-line drives.

        ``drive`` is ``(batch, rows)`` non-negative amplitudes (binary
        for spike coding, multi-level for an analog DAC).  Returns the
        digitised column outputs ``(batch, cols)`` in level units:
        the bit-line currents baseline-corrected for the off-state
        leakage ``g_min`` (computed directly in the level domain, where
        ``currents - g_min * sum(drive) == drive @ levels * g_step``),
        read-noise-corrupted, then quantized by the ADC.

        Padded bit lines are not simulated: only the ``live_cols``
        programmed ones are multiplied, perturbed and digitised, and
        the rest read as exact zeros.
        """
        if self._levels is None:
            raise RuntimeError("array has not been programmed")
        drive = np.asarray(drive, dtype=np.float64)
        if drive.ndim == 1:
            drive = drive[None, :]
        if drive.shape[1] != self.rows:
            raise ValueError(
                f"drive has {drive.shape[1]} lanes, array has {self.rows} rows"
            )
        if np.any(drive < 0):
            raise ValueError("word-line drive must be non-negative")
        live = self.live_cols
        level_values = drive @ self._levels[:, :live]
        # Read-path effect order (shared with the vectorized backend):
        # drift scales the signal, then Gaussian read noise, then
        # transient upsets, then the ADC digitises the sum.
        if self.device.drift_nu > 0.0:
            level_values = level_values * self._model.drift_factors(1)[0]
        if self.device.read_noise > 0.0:
            level_values = level_values + self._model.read_noise_levels(
                level_values.shape
            )
        if self.device.upset_rate > 0.0:
            positions, amplitudes = self._model.transient_upset_levels(
                level_values.shape
            )
            level_values[
                np.unravel_index(positions, level_values.shape)
            ] += amplitudes
        digitised = np.zeros((drive.shape[0], self.cols))
        digitised[:, :live] = adc_transfer.quantize_levels(
            level_values, self.adc
        )
        return digitised

    def exact_mvm(self, drive: np.ndarray) -> np.ndarray:
        """Reference result ignoring read noise and the ADC.

        Still includes programming error and stuck cells (whatever got
        written is what multiplies), so tests can isolate read-path
        effects.
        """
        drive = np.asarray(drive, dtype=np.float64)
        if drive.ndim == 1:
            drive = drive[None, :]
        return drive @ self.effective_levels()

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self) -> str:
        return (
            f"CrossbarArray({self.rows}x{self.cols}, "
            f"levels={self.device.levels}, programmed={self.is_programmed})"
        )
