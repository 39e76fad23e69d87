"""Counter-tree energy attribution: events x cost table -> joules.

The telemetry layer counts every physical event the simulated
accelerator performs — crossbar array reads, spike-driver (DAC) line
fires, I&F ADC samples, shift-add merges, ReRAM cell writes, buffer
bit transfers, and static-power occupancy sub-cycles.  This module
multiplies those counters by a per-event cost table (built by
:func:`repro.arch.components.event_costs`, passed in as a plain dict
so this module never imports the arch layer) and assembles a
schema-versioned ``energy`` report: per-group and per-tile energy
breakdowns, energy-per-inference / energy-per-epoch, and average
power.

Everything here is a pure function of ``(counter map, cost table)``:
deterministic, byte-identical across engine backends and sweep worker
counts, and exactly consistent with the closed-form analytic models —
one array read priced through the cost table equals
:func:`repro.arch.components.array_subcycle_energy` by construction,
which is what the consistency gates in the estimator and the
``energy_attribution`` benchmark assert.

Event-counter grammar (leaves under any group prefix)
-----------------------------------------------------
======================  ============================================
leaf                     meaning
======================  ============================================
``array_reads``          bit-serial reads of one physical array
``dac.line_fires``       spike-driver word-line activations
``adc.samples``          I&F ADC conversions (one per bit line read)
``shift_adds``           shift-and-add column merges
``cell_writes``          ReRAM cells programmed (write pulses)
``buffer.bits``          bits moved through buffer subarray ports
``static.array_subcycles``       array-subcycle occupancy (idle too)
``static.controller_subcycles``  controller/chip busy sub-cycles
======================  ============================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.telemetry.collector import Number, SCHEMA_VERSION
from repro.utils.validation import NON_NEGATIVE, check_document

#: Keys a cost table must carry (values: joules per event, watts for
#: static power, seconds per sub-cycle).
COST_KEYS = (
    "array_read_joules",
    "dac_line_joules",
    "adc_sample_joules",
    "shift_add_joules",
    "cell_write_joules",
    "buffer_bit_joules",
    "array_static_watts",
    "controller_static_watts",
    "subcycle_seconds",
)

#: Components every energy breakdown reports, in render order: the
#: crossbar array itself, the I&F ADC column periphery (conversions +
#: shift-add merges), the spike-driver/DAC row periphery, weight-write
#: pulses, buffer transfers, and static power.
ENERGY_COMPONENTS = (
    "array", "adc", "driver", "write", "buffer", "static",
)

#: Event-counter leaf -> the component its energy lands in.
_EVENT_COMPONENT = {
    "array_reads": "array",
    "adc.samples": "adc",
    "shift_adds": "adc",
    "dac.line_fires": "driver",
    "cell_writes": "write",
    "buffer.bits": "buffer",
    "static.array_subcycles": "static",
    "static.controller_subcycles": "static",
}

#: Event-counter leaf -> joules per counted event given a cost table.
_EVENT_PRICE = {
    "array_reads": lambda c: c["array_read_joules"],
    "adc.samples": lambda c: c["adc_sample_joules"],
    "shift_adds": lambda c: c["shift_add_joules"],
    "dac.line_fires": lambda c: c["dac_line_joules"],
    "cell_writes": lambda c: c["cell_write_joules"],
    "buffer.bits": lambda c: c["buffer_bit_joules"],
    "static.array_subcycles": lambda c: (
        c["array_static_watts"] * c["subcycle_seconds"]
    ),
    "static.controller_subcycles": lambda c: (
        c["controller_static_watts"] * c["subcycle_seconds"]
    ),
}


_COST_SHAPE = {key: NON_NEGATIVE for key in COST_KEYS}

_ENERGY_RECORD_SHAPE = {
    "components": {name: NON_NEGATIVE for name in ENERGY_COMPONENTS},
    "dynamic_joules": NON_NEGATIVE, "total_joules": NON_NEGATIVE,
    "simulated_seconds": NON_NEGATIVE, "average_watts": NON_NEGATIVE,
}

_ENERGY_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "energy", "source": str,
    "costs": _COST_SHAPE, "groups": [_ENERGY_RECORD_SHAPE],
    "totals": _ENERGY_RECORD_SHAPE,
}


def validate_cost_table(costs: Mapping[str, float]) -> Dict[str, float]:
    """Check a cost table's keys/values; returns a plain float dict."""
    check_document(costs, _COST_SHAPE, "cost_table")
    return {key: float(costs[key]) for key in COST_KEYS}


def _split_leaf(path: str) -> Tuple[str, str]:
    prefix, _, leaf = path.rpartition("/")
    return prefix, leaf


def _tile_rows(
    counters: Mapping[str, Number],
    prefix: str,
    dynamic_mvm_joules: float,
) -> List[Dict[str, Any]]:
    """Per-tile shares of one group's MVM-path dynamic energy.

    Tiles record only ``reads`` (and ``adc.conversions``); their share
    of the group's array+ADC+driver energy is attributed
    proportionally to reads — exact when tiles are homogeneous, which
    the balanced Fig. 4 mapping guarantees per layer.
    """
    marker = f"{prefix}/tile[" if prefix else "tile["
    tiles: Dict[str, Number] = {}
    for path, value in counters.items():
        if not path.startswith(marker):
            continue
        inner, bracket, leaf = path[len(marker):].partition("]/")
        if not bracket or leaf != "reads":
            continue
        tiles[inner] = value
    total_reads = float(sum(tiles.values()))
    rows = []
    for tile in sorted(tiles):
        share = float(tiles[tile]) / total_reads if total_reads else 0.0
        rows.append(
            {
                "tile": tile,
                "reads": tiles[tile],
                "read_share": share,
                "energy_joules": share * dynamic_mvm_joules,
            }
        )
    return rows


def attribute_energy(
    counters: Mapping[str, Number],
    costs: Mapping[str, float],
    source_name: str = "counters",
) -> Dict[str, Any]:
    """Walk a counter tree and price every event: the ``energy`` report.

    Any prefix directly owning at least one event-counter leaf (see
    the module docstring) becomes a *group* with its own component
    breakdown; groups nest naturally (an engine layer under a serve
    tenant under the collector root each resolve separately).  The
    report's ``totals`` sum every group, derive ``average_watts`` from
    static occupancy (simulated seconds = controller sub-cycles x
    sub-cycle time), and — when ``inference.inputs`` / ``epochs``
    counters are present anywhere in the tree — energy-per-inference
    and energy-per-epoch.
    """
    table = validate_cost_table(costs)
    groups: Dict[str, Dict[str, Any]] = {}
    inference_inputs = 0.0
    epochs = 0.0
    for path, value in counters.items():
        prefix, leaf = _split_leaf(path)
        if leaf == "inference.inputs":
            inference_inputs += float(value)
        elif leaf == "epochs":
            epochs += float(value)
        component = _EVENT_COMPONENT.get(leaf)
        if component is None:
            continue
        group = groups.setdefault(
            prefix,
            {
                "prefix": prefix,
                "events": {},
                "components": {name: 0.0 for name in ENERGY_COMPONENTS},
            },
        )
        group["events"][leaf] = value
        group["components"][component] += (
            float(value) * _EVENT_PRICE[leaf](table)
        )
    rows: List[Dict[str, Any]] = []
    totals = {name: 0.0 for name in ENERGY_COMPONENTS}
    total_controller_subcycles = 0.0
    for prefix in sorted(groups):
        group = groups[prefix]
        components = group["components"]
        dynamic = sum(
            components[name] for name in ENERGY_COMPONENTS
            if name != "static"
        )
        total = dynamic + components["static"]
        controller_subcycles = float(
            group["events"].get("static.controller_subcycles", 0)
        )
        seconds = controller_subcycles * table["subcycle_seconds"]
        group_row = {
            "prefix": prefix,
            "events": {
                leaf: group["events"][leaf]
                for leaf in sorted(group["events"])
            },
            "components": components,
            "dynamic_joules": dynamic,
            "total_joules": total,
            "simulated_seconds": seconds,
            "average_watts": total / seconds if seconds else 0.0,
            "tiles": _tile_rows(
                counters,
                prefix,
                components["array"] + components["adc"]
                + components["driver"],
            ),
        }
        rows.append(group_row)
        for name in ENERGY_COMPONENTS:
            totals[name] += components[name]
        total_controller_subcycles += controller_subcycles
    dynamic = sum(
        totals[name] for name in ENERGY_COMPONENTS if name != "static"
    )
    total = dynamic + totals["static"]
    seconds = total_controller_subcycles * table["subcycle_seconds"]
    summary: Dict[str, Any] = {
        "components": totals,
        "dynamic_joules": dynamic,
        "total_joules": total,
        "simulated_seconds": seconds,
        "average_watts": total / seconds if seconds else 0.0,
    }
    if inference_inputs:
        summary["inference_inputs"] = inference_inputs
        summary["energy_per_inference_joules"] = total / inference_inputs
    if epochs:
        summary["epochs"] = epochs
        summary["energy_per_epoch_joules"] = total / epochs
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "energy",
        "source": str(source_name),
        "costs": table,
        "groups": rows,
        "totals": summary,
    }


def validate_energy_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``document`` is a valid energy report."""
    check_document(document, _ENERGY_SHAPE, "energy_report")
    for record in document["groups"] + [document["totals"]]:
        components = record["components"]
        total = record["total_joules"]
        reconstructed = sum(components[name] for name in ENERGY_COMPONENTS)
        if abs(reconstructed - total) > max(1e-9 * abs(total), 1e-18):
            raise ValueError(
                f"energy components do not sum to total_joules: {record!r}"
            )
    return document


def energy_counter_map(
    report: Mapping[str, Any], prefix: str = "energy"
) -> Dict[str, float]:
    """Flat ``energy/..._joules`` counters summarising one report.

    The counter form of the report's ``totals`` — what the serve layer
    and sweep cells publish so priced energy flows through the same
    merge/exposition machinery as every other counter.  All values are
    totals, so additive :meth:`~repro.telemetry.Collector.merge_counters`
    aggregation stays order-independent.
    """
    totals = report["totals"]
    counters = {
        f"{prefix}/{name}_joules": float(totals["components"][name])
        for name in ENERGY_COMPONENTS
    }
    counters[f"{prefix}/total_joules"] = float(totals["total_joules"])
    counters[f"{prefix}/simulated_seconds"] = float(
        totals["simulated_seconds"]
    )
    return counters


__all__ = [
    "COST_KEYS",
    "ENERGY_COMPONENTS",
    "attribute_energy",
    "energy_counter_map",
    "validate_cost_table",
    "validate_energy_report",
]
