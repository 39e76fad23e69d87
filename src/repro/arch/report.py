"""Area and power reporting for accelerator deployments.

The PipeLayer/ReGAN papers report area and power alongside speedup;
the overview paper's Table I keeps only speedup/energy, but any
credible deployment answer needs the physical budget too.  This module
derives both from a :class:`~repro.core.pipelayer.PipeLayerModel`:

* **area** — deployed arrays x per-array area (crossbar + periphery
  share), plus the memory/buffer subarray share;
* **power** — static (always-on) plus average dynamic (energy per
  image over time per image).

The GPU comparison point is the GTX 1080's GP104 die (314 mm^2,
180 W board power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.components import chip_area_mm2
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # annotation-only: core sits above arch (ARCH001)
    from repro.core.pipelayer import PipeLayerModel

#: GP104 die area (mm^2), the GTX 1080's silicon.
GTX1080_DIE_MM2 = 314.0
#: Fraction of extra area for memory/buffer subarrays and interconnect,
#: relative to the compute arrays (PipeLayer-style banks devote a
#: comparable region to memory subarrays).
MEMORY_REGION_FACTOR = 0.5


@dataclass(frozen=True)
class AreaPowerReport:
    """Physical budget of one deployment."""

    name: str
    array_count: int
    compute_area_mm2: float
    memory_area_mm2: float
    static_power_w: float
    dynamic_power_w: float

    @property
    def total_area_mm2(self) -> float:
        return self.compute_area_mm2 + self.memory_area_mm2

    @property
    def total_power_w(self) -> float:
        return self.static_power_w + self.dynamic_power_w

    @property
    def area_vs_gpu(self) -> float:
        """Deployment area relative to the GP104 die."""
        return self.total_area_mm2 / GTX1080_DIE_MM2

    def summary(self) -> str:
        return (
            f"{self.name}: {self.array_count:,} arrays, "
            f"{self.total_area_mm2:,.1f} mm^2 "
            f"({self.area_vs_gpu:.2f}x GP104), "
            f"{self.total_power_w:,.1f} W "
            f"(static {self.static_power_w:,.1f}, "
            f"dynamic {self.dynamic_power_w:,.1f})"
        )


def pipelayer_report(
    model: PipeLayerModel, batch: int = 32, training: bool = True
) -> AreaPowerReport:
    """Area/power budget of a PipeLayer deployment."""
    check_positive("batch", batch)
    arrays = model.total_arrays
    compute_area = chip_area_mm2(model.tech, arrays)
    energy = model.energy_per_image(batch, training)
    dynamic_power = energy.dynamic / model.time_per_image(batch, training)
    return AreaPowerReport(
        name=model.network.name,
        array_count=arrays,
        compute_area_mm2=compute_area,
        memory_area_mm2=compute_area * MEMORY_REGION_FACTOR,
        static_power_w=model.static_power_watts(),
        dynamic_power_w=dynamic_power,
    )
