"""ReRAM write-endurance lifetime analysis.

Training on a ReRAM PIM accelerator rewrites weight cells once per
batch (Sec. III-A-2's batched update); ReRAM cells survive a bounded
number of write cycles (~1e6-1e12 depending on device).  This module
estimates how long a deployment can *train* before its weight cells
wear out — the practical limit the PipeLayer line of work inherits from
the device, and a standard concern in follow-up literature.

The model is deliberately simple and explicit: every weight cell of
every duplicated copy is rewritten once per batch (the pessimistic
no-delta-encoding case the papers assume), so

    lifetime_batches = endurance          (writes per cell)
    lifetime_seconds = lifetime_batches * seconds_per_batch
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.validation import check_positive

if TYPE_CHECKING:  # annotation-only: core sits above arch (ARCH001)
    from repro.core.pipelayer import PipeLayerModel

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class LifetimeReport:
    """Wear-out estimate for one training deployment."""

    network: str
    endurance: float
    batch: int
    seconds_per_batch: float
    writes_per_batch_per_cell: float = 1.0

    def __post_init__(self) -> None:
        check_positive("endurance", self.endurance)
        check_positive("batch", self.batch)
        check_positive("seconds_per_batch", self.seconds_per_batch)
        check_positive(
            "writes_per_batch_per_cell", self.writes_per_batch_per_cell
        )

    @property
    def lifetime_batches(self) -> float:
        """Training batches until the weight cells hit their limit."""
        return self.endurance / self.writes_per_batch_per_cell

    @property
    def lifetime_seconds(self) -> float:
        """Wall-clock training time until wear-out."""
        return self.lifetime_batches * self.seconds_per_batch

    @property
    def lifetime_days(self) -> float:
        return self.lifetime_seconds / SECONDS_PER_DAY

    @property
    def lifetime_examples(self) -> float:
        """Training examples processed before wear-out."""
        return self.lifetime_batches * self.batch

    def summary(self) -> str:
        return (
            f"{self.network}: endurance {self.endurance:.1e} writes/cell, "
            f"B={self.batch} -> {self.lifetime_batches:.3g} batches "
            f"({self.lifetime_examples:.3g} examples, "
            f"{self.lifetime_days:.3g} days of continuous training)"
        )


def training_lifetime(
    model: PipeLayerModel, batch: int = 32, endurance: float = 1e9
) -> LifetimeReport:
    """Lifetime of a PipeLayer deployment under continuous training.

    Uses the deployment's own cycle model for the batch time and the
    given per-cell ``endurance`` rating (write cycles; 1e9 is a typical
    optimistic metal-oxide ReRAM figure, 1e6 a pessimistic one).
    """
    check_positive("batch", batch)
    check_positive("endurance", endurance)
    seconds_per_batch = model.training_time_per_image(batch) * batch
    return LifetimeReport(
        network=model.network.name,
        endurance=endurance,
        batch=batch,
        seconds_per_batch=seconds_per_batch,
    )
