"""Bank organisation: morphable / memory / buffer subarrays (Figs. 6, 10).

PipeLayer divides each memory bank into *morphable* subarrays (switch
between memory and compute modes), *memory* subarrays (intermediate
results) and *bank buffers*; ReGAN's equivalent regions are *FF*,
*Mem* and *Buffer* subarrays.  This module provides a functional model
of that organisation: subarrays with an operating mode, a bank that
allocates them, and the mode-switch bookkeeping the control unit
performs between pipeline phases.

The cycle/energy models do not depend on this module (they count
operations directly); it exists so the *implementation* sections of the
paper are represented as executable structure, exercised by tests and
the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.utils.validation import check_positive


class SubarrayMode(Enum):
    """Operating mode of a morphable (FF) subarray."""

    MEMORY = "memory"
    COMPUTE = "compute"


class SubarrayKind(Enum):
    """Region a subarray belongs to within a bank."""

    MORPHABLE = "morphable"
    MEMORY = "memory"
    BUFFER = "buffer"


@dataclass
class Subarray:
    """One ReRAM subarray of ``rows x cols`` cells.

    Morphable subarrays start in memory mode ("a morphable unit behaves
    the same as a regular ReRAM subarray in the memory mode"); memory
    and buffer subarrays are fixed-function and refuse mode switches.
    """

    index: int
    kind: SubarrayKind
    rows: int = 128
    cols: int = 128
    mode: SubarrayMode = SubarrayMode.MEMORY
    assigned_to: Optional[str] = None
    mode_switches: int = 0

    def switch_mode(self, mode: SubarrayMode) -> None:
        """Change operating mode (morphable subarrays only)."""
        if self.kind is not SubarrayKind.MORPHABLE:
            raise ValueError(
                f"{self.kind.value} subarray {self.index} cannot switch modes"
            )
        if mode is not self.mode:
            self.mode = mode
            self.mode_switches += 1

    @property
    def cells(self) -> int:
        """Cell capacity of the subarray."""
        return self.rows * self.cols


@dataclass
class Bank:
    """A memory bank: the three-region division of Fig. 6 / Fig. 10.

    The bank control unit "decodes the incoming instructions and
    determines the operation mode of morphable subarrays"; here that is
    the :meth:`assign_compute` / :meth:`release` pair, which the
    accelerator compiler drives when placing layers.
    """

    morphable_count: int
    memory_count: int
    buffer_count: int
    rows: int = 128
    cols: int = 128
    subarrays: List[Subarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("morphable_count", self.morphable_count)
        check_positive("memory_count", self.memory_count)
        check_positive("buffer_count", self.buffer_count)
        if not self.subarrays:
            index = 0
            for kind, count in (
                (SubarrayKind.MORPHABLE, self.morphable_count),
                (SubarrayKind.MEMORY, self.memory_count),
                (SubarrayKind.BUFFER, self.buffer_count),
            ):
                for _ in range(count):
                    self.subarrays.append(
                        Subarray(
                            index=index, kind=kind, rows=self.rows, cols=self.cols
                        )
                    )
                    index += 1

    # -- queries ------------------------------------------------------------
    def of_kind(self, kind: SubarrayKind) -> List[Subarray]:
        """All subarrays in one region."""
        return [s for s in self.subarrays if s.kind is kind]

    def free_morphable(self) -> List[Subarray]:
        """Morphable subarrays not assigned to any layer."""
        return [
            s
            for s in self.of_kind(SubarrayKind.MORPHABLE)
            if s.assigned_to is None
        ]

    # -- control ---------------------------------------------------------------
    def assign_compute(self, owner: str, count: int) -> List[Subarray]:
        """Switch ``count`` free morphable subarrays to compute for ``owner``."""
        check_positive("count", count)
        free = self.free_morphable()
        if len(free) < count:
            raise RuntimeError(
                f"bank has {len(free)} free morphable subarrays, "
                f"{owner} needs {count}"
            )
        taken = free[:count]
        for subarray in taken:
            subarray.switch_mode(SubarrayMode.COMPUTE)
            subarray.assigned_to = owner
        return taken

    def release(self, owner: str) -> int:
        """Return ``owner``'s subarrays to memory mode; counts released."""
        released = 0
        for subarray in self.of_kind(SubarrayKind.MORPHABLE):
            if subarray.assigned_to == owner:
                subarray.switch_mode(SubarrayMode.MEMORY)
                subarray.assigned_to = None
                released += 1
        return released

    def utilisation(self) -> Dict[str, float]:
        """Fraction of morphable subarrays in compute mode, per owner."""
        morphable = self.of_kind(SubarrayKind.MORPHABLE)
        owners: Dict[str, int] = {}
        for subarray in morphable:
            if subarray.assigned_to is not None:
                owners[subarray.assigned_to] = (
                    owners.get(subarray.assigned_to, 0) + 1
                )
        return {
            owner: count / len(morphable) for owner, count in owners.items()
        }
