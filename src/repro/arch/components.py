"""Component-level cost helpers for the PIM datapath (Fig. 6 circuits).

Each function prices one hardware event in terms of the technology
table: a spike-driven array sub-cycle (spike drivers + crossbar + I&F
ADCs + shift-add), a weight write, a buffer transfer.  The accelerator
models compose these with their operation counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import XbarTechParams
from repro.utils.validation import check_non_negative, check_positive


def array_subcycle_energy(
    tech: XbarTechParams, rows: int, cols: int
) -> float:
    """Dynamic energy of one bit-serial read of one ``rows x cols`` array.

    Covers the spike drivers firing every word line, the crossbar
    itself, one I&F conversion per bit line, and the digital
    shift-and-add that merges the column result into the accumulator.
    """
    check_positive("rows", rows)
    check_positive("cols", cols)
    return (
        tech.array_read_energy
        + rows * tech.driver_energy_per_line
        + cols * tech.adc_energy_per_conversion
        + cols * tech.shift_add_energy_per_column
    )


def weight_write_energy(tech: XbarTechParams, cells: int) -> float:
    """Energy to (re)program ``cells`` ReRAM cells."""
    check_non_negative("cells", cells)
    return cells * tech.cell_write_energy


def buffer_transfer_energy(tech: XbarTechParams, bits: float) -> float:
    """Energy to move ``bits`` through a memory/buffer subarray port."""
    check_non_negative("bits", bits)
    return bits * tech.buffer_energy_per_bit


def static_power(tech: XbarTechParams, array_count: int) -> float:
    """Always-on chip power for ``array_count`` deployed arrays."""
    check_non_negative("array_count", array_count)
    return (
        array_count * tech.array_static_power + tech.controller_static_power
    )


def chip_area_mm2(tech: XbarTechParams, array_count: int) -> float:
    """Die area estimate for ``array_count`` arrays plus periphery."""
    check_non_negative("array_count", array_count)
    return array_count * tech.array_area_mm2


def event_costs(tech: XbarTechParams) -> "dict[str, float]":
    """Per-event cost table for counter-based energy attribution.

    Flattens the technology table into the plain ``name -> cost`` dict
    that :func:`repro.telemetry.attribute_energy` prices event counters
    with (the telemetry layer takes a dict, not a tech object, so it
    never imports :mod:`repro.arch`).  The keys mirror the event
    counters the crossbar engine and the analytic models emit; by
    construction one array read priced through this table —
    ``array_read + rows * dac_line + cols * (adc_sample + shift_add)``
    — equals :func:`array_subcycle_energy` exactly.
    """
    return {
        "array_read_joules": tech.array_read_energy,
        "dac_line_joules": tech.driver_energy_per_line,
        "adc_sample_joules": tech.adc_energy_per_conversion,
        "shift_add_joules": tech.shift_add_energy_per_column,
        "cell_write_joules": tech.cell_write_energy,
        "buffer_bit_joules": tech.buffer_energy_per_bit,
        "array_static_watts": tech.array_static_power,
        "controller_static_watts": tech.controller_static_power,
        "subcycle_seconds": tech.subcycle_time,
    }


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy ledger for one workload execution (joules).

    The models fill the dynamic categories; ``static`` is power x
    makespan.  ``total`` sums everything — the figure Table I's energy
    ratios are computed from.
    """

    mvm: float = 0.0
    buffer: float = 0.0
    weight_write: float = 0.0
    static: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mvm", "buffer", "weight_write", "static"):
            check_non_negative(name, getattr(self, name))

    @property
    def total(self) -> float:
        return self.mvm + self.buffer + self.weight_write + self.static

    @property
    def dynamic(self) -> float:
        return self.mvm + self.buffer + self.weight_write
