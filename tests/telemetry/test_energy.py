"""Unit tests for counter-tree energy attribution.

``attribute_energy`` is a pure function of ``(counter map, cost
table)``; round-number cost fixtures make every expected joule exact,
so equality assertions here are ``==``, not approx.
"""

import pytest

from repro.arch.components import array_subcycle_energy, event_costs
from repro.arch.params import DEFAULT_TECH
from repro.telemetry import (
    COST_KEYS,
    ENERGY_COMPONENTS,
    attribute_energy,
    energy_counter_map,
    validate_cost_table,
    validate_energy_report,
)

COSTS = {
    "array_read_joules": 2.0,
    "dac_line_joules": 0.5,
    "adc_sample_joules": 3.0,
    "shift_add_joules": 0.25,
    "cell_write_joules": 10.0,
    "buffer_bit_joules": 0.125,
    "array_static_watts": 4.0,
    "controller_static_watts": 8.0,
    "subcycle_seconds": 0.5,
}


def _counters():
    return {
        "engine/fc0/array_reads": 4,
        "engine/fc0/dac.line_fires": 2,
        "engine/fc0/adc.samples": 4,
        "engine/fc0/shift_adds": 8,
        "engine/fc0/cell_writes": 3,
        "engine/fc0/buffer.bits": 16,
        "engine/fc0/static.array_subcycles": 6,
        "engine/fc0/static.controller_subcycles": 6,
        "engine/fc0/mvm_calls": 1,  # not an event leaf: ignored
        "inference.inputs": 2,
        "train/epochs": 4,
    }


class TestAttributeEnergy:
    def test_component_pricing_is_exact(self):
        report = attribute_energy(_counters(), COSTS)
        (group,) = report["groups"]
        assert group["prefix"] == "engine/fc0"
        assert group["components"] == {
            "array": 4 * 2.0,
            "adc": 4 * 3.0 + 8 * 0.25,
            "driver": 2 * 0.5,
            "write": 3 * 10.0,
            "buffer": 16 * 0.125,
            "static": 6 * (4.0 * 0.5) + 6 * (8.0 * 0.5),
        }
        assert group["dynamic_joules"] == 55.0
        assert group["total_joules"] == 91.0
        assert group["simulated_seconds"] == 3.0
        assert group["average_watts"] == 91.0 / 3.0

    def test_totals_and_normalizers(self):
        totals = attribute_energy(_counters(), COSTS)["totals"]
        assert totals["total_joules"] == 91.0
        assert totals["inference_inputs"] == 2.0
        assert totals["energy_per_inference_joules"] == 91.0 / 2
        assert totals["epochs"] == 4.0
        assert totals["energy_per_epoch_joules"] == 91.0 / 4

    def test_groups_nest_and_sort_by_prefix(self):
        counters = {
            "serve/tenant[bob]/engine/fc0/array_reads": 1,
            "serve/tenant[alice]/engine/fc0/array_reads": 2,
        }
        report = attribute_energy(counters, COSTS)
        assert [g["prefix"] for g in report["groups"]] == [
            "serve/tenant[alice]/engine/fc0",
            "serve/tenant[bob]/engine/fc0",
        ]
        assert report["totals"]["components"]["array"] == 3 * 2.0

    def test_no_events_means_no_groups(self):
        report = attribute_energy(
            {"engine/fc0/mvm_calls": 7, "serve/jobs[inference]": 3},
            COSTS,
        )
        assert report["groups"] == []
        assert report["totals"]["total_joules"] == 0.0
        validate_energy_report(report)

    def test_tile_shares_are_read_proportional(self):
        counters = {
            "engine/fc0/array_reads": 4,
            "engine/fc0/tile[r0.c0]/reads": 3,
            "engine/fc0/tile[r0.c1]/reads": 1,
        }
        (group,) = attribute_energy(counters, COSTS)["groups"]
        mvm = group["components"]["array"]
        assert [
            (t["tile"], t["read_share"], t["energy_joules"])
            for t in group["tiles"]
        ] == [
            ("r0.c0", 0.75, 0.75 * mvm),
            ("r0.c1", 0.25, 0.25 * mvm),
        ]

    def test_report_validates(self):
        report = attribute_energy(_counters(), COSTS)
        assert validate_energy_report(report) is report


class TestValidation:
    def test_cost_table_missing_key(self):
        costs = dict(COSTS)
        del costs["adc_sample_joules"]
        with pytest.raises(ValueError, match="adc_sample_joules"):
            validate_cost_table(costs)

    def test_cost_table_rejects_negative_and_bool(self):
        with pytest.raises(ValueError, match=">= 0"):
            validate_cost_table({**COSTS, "array_read_joules": -1.0})
        with pytest.raises(ValueError, match="expected number, got bool"):
            validate_cost_table({**COSTS, "subcycle_seconds": True})

    def test_all_cost_keys_are_checked(self):
        assert len(COST_KEYS) == len(COSTS)
        assert set(COST_KEYS) == set(COSTS)

    def test_tampered_total_rejected(self):
        report = attribute_energy(_counters(), COSTS)
        report["totals"]["total_joules"] += 1.0
        with pytest.raises(ValueError, match="do not sum"):
            validate_energy_report(report)


class TestCounterEmission:
    def test_counter_map_paths_and_values(self):
        report = attribute_energy(_counters(), COSTS)
        counters = energy_counter_map(report)
        assert counters["energy/total_joules"] == 91.0
        assert counters["energy/simulated_seconds"] == 3.0
        for name in ENERGY_COMPONENTS:
            assert (
                counters[f"energy/{name}_joules"]
                == report["totals"]["components"][name]
            )


class TestArchConsistency:
    def test_one_array_read_equals_closed_form(self):
        """One priced read == ``array_subcycle_energy`` by construction."""
        rows, cols = 128, 128
        counters = {
            "engine/layer/array_reads": 1,
            "engine/layer/dac.line_fires": rows,
            "engine/layer/adc.samples": cols,
            "engine/layer/shift_adds": cols,
        }
        report = attribute_energy(counters, event_costs(DEFAULT_TECH))
        assert report["totals"]["dynamic_joules"] == pytest.approx(
            array_subcycle_energy(DEFAULT_TECH, rows, cols), rel=1e-12
        )
