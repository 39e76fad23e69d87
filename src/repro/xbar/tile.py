"""Partitioning a large matrix over multiple crossbar arrays (Fig. 3c).

"For a large matrix that can not fit in a single array, the input and
the output shall be partitioned and grouped into multiple arrays ...
The output of each array is a partial sum, which is collected
horizontally and summed vertically to generate the final calculation
results."  :class:`TiledCrossbar` implements exactly that: the logical
``(K, N)`` level matrix is cut into an ``R x C`` grid of physical
arrays; an MVM drives each row block with its slice of the input and
adds the per-block partial sums.

Because each physical array digitises its own columns, partial sums are
quantized *before* the vertical add — the same place the real design
pays its ADC error.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive
from repro.xbar.adc import ADCConfig
from repro.xbar.crossbar import CrossbarArray
from repro.xbar.device import DeviceConfig


def tile_grid(
    logical_rows: int, logical_cols: int, array_rows: int, array_cols: int
) -> Tuple[int, int]:
    """Number of (row, col) array blocks covering a logical matrix."""
    check_positive("logical_rows", logical_rows)
    check_positive("logical_cols", logical_cols)
    check_positive("array_rows", array_rows)
    check_positive("array_cols", array_cols)
    return ceil(logical_rows / array_rows), ceil(logical_cols / array_cols)


class TiledCrossbar:
    """A logical matrix spread over a grid of physical arrays."""

    def __init__(
        self,
        logical_rows: int,
        logical_cols: int,
        device: DeviceConfig,
        array_rows: int = 128,
        array_cols: int = 128,
        adc: Optional[ADCConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.logical_rows = logical_rows
        self.logical_cols = logical_cols
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.device = device
        grid_rows, grid_cols = tile_grid(
            logical_rows, logical_cols, array_rows, array_cols
        )
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        rngs = iter(spawn_rngs(rng, grid_rows * grid_cols))
        self.arrays: List[List[CrossbarArray]] = [
            [
                CrossbarArray(
                    array_rows, array_cols, device, adc=adc, rng=next(rngs)
                )
                for _ in range(grid_cols)
            ]
            for _ in range(grid_rows)
        ]

    @property
    def array_count(self) -> int:
        """Physical arrays used by this logical matrix."""
        return self.grid_rows * self.grid_cols

    def program(self, levels: np.ndarray) -> None:
        """Distribute a logical level matrix over the array grid."""
        levels = np.asarray(levels)
        if levels.shape != (self.logical_rows, self.logical_cols):
            raise ValueError(
                f"levels shape {levels.shape} != logical "
                f"({self.logical_rows}, {self.logical_cols})"
            )
        for block_row in range(self.grid_rows):
            row_start = block_row * self.array_rows
            row_end = min(row_start + self.array_rows, self.logical_rows)
            for block_col in range(self.grid_cols):
                col_start = block_col * self.array_cols
                col_end = min(col_start + self.array_cols, self.logical_cols)
                self.arrays[block_row][block_col].program(
                    levels[row_start:row_end, col_start:col_end]
                )

    def mvm(self, drive: np.ndarray) -> np.ndarray:
        """Tiled MVM: per-array digitised partial sums, added vertically.

        ``drive`` is ``(batch, logical_rows)`` non-negative amplitudes;
        returns ``(batch, logical_cols)`` level-unit outputs.
        """
        drive = np.asarray(drive, dtype=np.float64)
        if drive.ndim == 1:
            drive = drive[None, :]
        if drive.shape[1] != self.logical_rows:
            raise ValueError(
                f"drive width {drive.shape[1]} != logical rows "
                f"{self.logical_rows}"
            )
        batch = drive.shape[0]
        output = np.zeros((batch, self.logical_cols))
        for block_row in range(self.grid_rows):
            row_start = block_row * self.array_rows
            row_end = min(row_start + self.array_rows, self.logical_rows)
            block_drive = np.zeros((batch, self.array_rows))
            block_drive[:, : row_end - row_start] = drive[:, row_start:row_end]
            for block_col in range(self.grid_cols):
                col_start = block_col * self.array_cols
                col_end = min(col_start + self.array_cols, self.logical_cols)
                partial = self.arrays[block_row][block_col].mvm(block_drive)
                output[:, col_start:col_end] += partial[
                    :, : col_end - col_start
                ]
        return output

    def level_blocks(self) -> np.ndarray:
        """Every physical array's effective levels as one block matrix.

        Returns the padded ``(grid_rows * array_rows, grid_cols *
        array_cols)`` matrix whose block ``(i, j)`` is array ``(i,
        j)``'s effective level matrix — the exact per-array state a
        read multiplies by.  The vectorized backend contracts its row
        blocks in one batched matmul; :meth:`effective_logical` cuts
        the logical matrix from it.  Built on each call; the engine
        caches what it derives from it until the next :meth:`program`.
        """
        return np.block(
            [
                [array.effective_levels() for array in row]
                for row in self.arrays
            ]
        )

    def effective_logical(self) -> np.ndarray:
        """The logical matrix the arrays actually hold, in level units.

        Includes programming error and stuck faults (whatever got
        written): :meth:`level_blocks` cut to the logical shape.  This
        is what an ideal read path would multiply by — the basis of the
        engine's signed level sum (its collapsed full path and
        ``fast_linear``).
        """
        return self.level_blocks()[: self.logical_rows, : self.logical_cols]

    def fault_census(self) -> dict:
        """Stuck-cell totals across this tile's physical arrays.

        JSON-able: grid geometry, aggregate counts, and the per-array
        breakdown (row-major) — the per-tile observability the
        reliability campaigns report.
        """
        per_array = [
            array.fault_census() for row in self.arrays for array in row
        ]
        return {
            "grid": [self.grid_rows, self.grid_cols],
            "cells": sum(entry["cells"] for entry in per_array),
            "stuck_off": sum(entry["stuck_off"] for entry in per_array),
            "stuck_on": sum(entry["stuck_on"] for entry in per_array),
            "arrays": per_array,
        }

    @property
    def total_programs(self) -> int:
        """Sum of program operations across all arrays."""
        return sum(a.programs for row in self.arrays for a in row)

    @property
    def total_reads(self) -> int:
        """Sum of read (MVM) operations across all arrays."""
        return sum(a.reads for row in self.arrays for a in row)

    def __repr__(self) -> str:
        return (
            f"TiledCrossbar({self.logical_rows}x{self.logical_cols} over "
            f"{self.grid_rows}x{self.grid_cols} arrays of "
            f"{self.array_rows}x{self.array_cols})"
        )
