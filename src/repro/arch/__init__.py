"""Architecture cost models: technology tables, components, GPU baseline."""

from repro.arch.components import (
    EnergyBreakdown,
    array_subcycle_energy,
    buffer_transfer_energy,
    chip_area_mm2,
    static_power,
    weight_write_energy,
)
from repro.arch.endurance import (
    LifetimeReport,
    training_lifetime,
)
from repro.arch.gpu import BACKWARD_FLOP_FACTOR, GpuLayerTiming, GpuModel
from repro.arch.report import (
    GTX1080_DIE_MM2,
    AreaPowerReport,
    pipelayer_report,
)
from repro.arch.params import DEFAULT_TECH, GTX1080, GpuParams, XbarTechParams
from repro.arch.sensitivity import (
    SWEEPABLE_FIELDS,
    SensitivityRow,
    conclusion_robustness,
    scaled_tech,
    tech_sensitivity,
)

__all__ = [
    "EnergyBreakdown",
    "array_subcycle_energy",
    "buffer_transfer_energy",
    "weight_write_energy",
    "static_power",
    "chip_area_mm2",
    "LifetimeReport",
    "training_lifetime",
    "GpuModel",
    "GpuLayerTiming",
    "BACKWARD_FLOP_FACTOR",
    "XbarTechParams",
    "GpuParams",
    "DEFAULT_TECH",
    "GTX1080",
    "GTX1080_DIE_MM2",
    "AreaPowerReport",
    "pipelayer_report",
    "SensitivityRow",
    "SWEEPABLE_FIELDS",
    "tech_sensitivity",
    "scaled_tech",
    "conclusion_robustness",
]
