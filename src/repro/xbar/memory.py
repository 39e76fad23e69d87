"""ReRAM subarrays in *memory* mode (Fig. 6's morphable duality).

"A morphable unit behaves the same as a regular ReRAM subarray in the
memory mode and performs matrix-vector multiplications in the computing
mode."  This module provides the memory half: data words are packed
into the same multi-level cells the crossbar uses for weights, through
the same device model — so programming noise, stuck cells and level
quantization corrupt stored *data* exactly as they corrupt weights,
and a single physical :class:`~repro.xbar.crossbar.CrossbarArray` can
alternate between storing a layer's intermediate results and computing
(the morphable workflow, exercised by tests).

Words of ``width`` bits are split into base-``2**cell_bits`` digits,
one cell each, row-major across the array.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive
from repro.xbar.crossbar import CrossbarArray
from repro.xbar.device import DeviceConfig
from repro.utils.rng import RngLike


class ReRAMMemory:
    """A crossbar array used as a data store.

    Parameters
    ----------
    array:
        The physical array (possibly shared with compute use).
    """

    def __init__(self, array: CrossbarArray) -> None:
        self.array = array
        self._stored_shape: Optional[Tuple[int, ...]] = None
        self._stored_width: Optional[int] = None
        self._cells_per_word: Optional[int] = None

    @classmethod
    def create(
        cls,
        rows: int = 128,
        cols: int = 128,
        device: Optional[DeviceConfig] = None,
        rng: RngLike = None,
    ) -> "ReRAMMemory":
        """Build a standalone memory subarray."""
        return cls(
            CrossbarArray(rows, cols, device or DeviceConfig(), rng=rng)
        )

    # -- geometry ---------------------------------------------------------
    @property
    def cell_bits(self) -> int:
        return self.array.device.cell_bits

    def capacity_words(self, width: int) -> int:
        """How many ``width``-bit words fit."""
        check_positive("width", width)
        cells_per_word = -(-width // self.cell_bits)
        return (self.array.rows * self.array.cols) // cells_per_word

    # -- store / load ------------------------------------------------------
    def store(self, values: np.ndarray, width: int) -> None:
        """Write unsigned integers of ``width`` bits into the cells.

        Values are split LSB-digit-first into ``ceil(width/cell_bits)``
        cells each and programmed row-major; the write passes through
        the full device model (noise, stuck cells).
        """
        check_positive("width", width)
        values = np.asarray(values)
        if np.any(values < 0) or np.any(values >= 2**width):
            raise ValueError(f"values must fit in {width} unsigned bits")
        if values.size > self.capacity_words(width):
            raise ValueError(
                f"{values.size} words exceed capacity "
                f"{self.capacity_words(width)} at width {width}"
            )
        cells_per_word = -(-width // self.cell_bits)
        radix = 2**self.cell_bits
        work = values.astype(np.int64).ravel()
        digits = np.zeros((values.size, cells_per_word), dtype=np.int64)
        for digit in range(cells_per_word):
            digits[:, digit] = work % radix
            work = work // radix

        levels = np.zeros(
            (self.array.rows, self.array.cols), dtype=np.int64
        )
        flat = levels.reshape(-1)
        flat[: digits.size] = digits.reshape(-1)
        self.array.program(levels)
        self._stored_shape = values.shape
        self._stored_width = width
        self._cells_per_word = cells_per_word

    def load(self) -> np.ndarray:
        """Read the stored words back (through the noisy cells).

        Each cell's effective level is rounded to the nearest integer
        level — the sense amplifier's job — then digits reassemble into
        words.  With an ideal device the round trip is exact; noise or
        stuck cells produce bit errors, quantified by
        :meth:`bit_error_rate`.
        """
        if self._stored_shape is None:
            raise RuntimeError("nothing stored")
        levels = np.rint(self.array.effective_levels()).astype(np.int64)
        levels = np.clip(levels, 0, self.array.device.levels - 1)
        count = int(np.prod(self._stored_shape))
        digits = levels.reshape(-1)[: count * self._cells_per_word]
        digits = digits.reshape(count, self._cells_per_word)
        radix = 2**self.cell_bits
        values = np.zeros(count, dtype=np.int64)
        for digit in range(self._cells_per_word):
            values += digits[:, digit] * radix**digit
        limit = 2**self._stored_width
        return np.clip(values, 0, limit - 1).reshape(self._stored_shape)

    def bit_error_rate(self, original: np.ndarray) -> float:
        """Fraction of data bits flipped between store and load."""
        original = np.asarray(original).astype(np.int64)
        loaded = self.load().astype(np.int64)
        if original.shape != loaded.shape:
            raise ValueError("original shape does not match stored data")
        xor = np.bitwise_xor(original, loaded)
        flipped = sum(
            int(np.sum((xor >> bit) & 1))
            for bit in range(self._stored_width)
        )
        return flipped / (original.size * self._stored_width)
