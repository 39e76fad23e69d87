"""Derived performance metrics over telemetry counter maps.

:mod:`repro.telemetry` records *raw* counted events — per-stage busy
cycles, per-tile reads and ADC conversions, MVM calls.  This module
turns those counters into the derived efficiency metrics the source
papers argue with (stage utilization and bubble cycles for the Fig. 5
and Fig. 8 pipelines, ADC conversions per MAC and tile occupancy for
the crossbar engine, parallelism/efficiency roll-ups), without
re-running any simulation: every function here is pure and operates on
a flat ``path -> value`` counter map.

The entry point is :func:`analyze_counters`, which scans a counter map
for every recognisable subtree and assembles a schema-versioned
``analysis`` document (validated by
:func:`repro.telemetry.validate_analysis_report`); the ``repro
report`` CLI subcommand is a thin wrapper that renders that document.

Counter-path patterns recognised
--------------------------------
* ``<prefix>/stage[<s>].busy_cycles`` + ``<prefix>/makespan_cycles`` —
  a linear pipeline recorded by
  :func:`repro.core.schedule.simulate_training_pipeline` (Fig. 5) at
  any scope depth (``pipeline/...`` under ``repro trace``, nested
  scopes under campaigns).
* ``<prefix>/resource[<r>].busy_cycles`` — a GAN schedule recorded by
  :func:`repro.core.schedule.simulate_gan_iteration` (Fig. 8).
* ``<group>/<layer>/mvm_calls`` (+ ``macs``, ``adc_conversions``,
  ``array_reads``, ``subcycles``, ``tile[<t>]/...``) — a deployed
  crossbar engine layer (any group prefix, usually ``engine``).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.telemetry.collector import Collector, Number, SCHEMA_VERSION

_STAGE_RE = re.compile(r"stage\[(\d+)\]\.busy_cycles$")
_RESOURCE_RE = re.compile(r"resource\[([^\]]+)\]\.busy_cycles$")
_TILE_RE = re.compile(r"^tile\[([^\]]+)\]/(.+)$")

#: Engine-level counters copied verbatim into each layer record.
_ENGINE_FIELDS = (
    "mvm_calls",
    "macs",
    "subcycles",
    "array_reads",
    "array_programs",
    "adc_conversions",
    "weights_programmed",
    "fast_ideal_calls",
)

CounterSource = Union[Collector, Mapping[str, Any]]


def counters_from(source: CounterSource) -> Dict[str, Number]:
    """Flat counter map from a collector, counter dict, or document.

    Accepts a :class:`~repro.telemetry.Collector`, a flat
    ``path -> value`` mapping, or any telemetry JSON document carrying
    a ``"counters"`` section (profile reports, collector reports,
    bench documents).
    """
    if isinstance(source, Collector):
        return source.counters()
    if isinstance(source, Mapping):
        if "counters" in source and isinstance(source["counters"], Mapping):
            return dict(source["counters"])
        return dict(source)
    raise TypeError(
        f"cannot extract counters from {type(source).__name__}; pass a "
        "Collector, a flat counter map, or a document with a 'counters' "
        "section"
    )


def _scoped(counters: Mapping[str, Number], prefix: str, leaf: str,
            default: Number = 0) -> Number:
    path = f"{prefix}/{leaf}" if prefix else leaf
    return counters.get(path, default)


def _lanes(
    counters: Mapping[str, Number], leaf: "re.Pattern[str]"
) -> Dict[str, Dict[str, Number]]:
    """Busy-cycle counters whose leaf segment matches ``leaf``.

    Returns ``prefix -> {lane: busy_cycles}``, where the lane is the
    bracketed stage or resource name.
    """
    lanes: Dict[str, Dict[str, Number]] = {}
    for path, value in counters.items():
        match = leaf.search(path)
        if match and match.start() == path.rfind("/") + 1:
            prefix = path[: match.start()].rstrip("/")
            lanes.setdefault(prefix, {})[match.group(1)] = value
    return lanes


# -- linear pipelines (Fig. 5) ----------------------------------------------
def schedule_prefixes(counters: Mapping[str, Number]) -> List[str]:
    """Every prefix owning ``stage[<s>].busy_cycles`` counters."""
    return sorted(_lanes(counters, _STAGE_RE))


def stage_utilization(
    counters: Mapping[str, Number], prefix: str = ""
) -> Dict[str, Any]:
    """Per-stage utilization of one executed linear-pipeline schedule.

    ``prefix`` names the subtree (``"pipeline"`` under ``repro
    trace``; ``""`` when the schedule simulator wrote to the collector
    root).  For each stage ``s``: ``utilization = busy_cycles /
    makespan`` and ``bubble_cycles = makespan - busy_cycles`` (cycles
    the stage sat idle while the schedule ran).  The roll-ups:
    ``parallelism`` is the mean number of busy stages per cycle and
    ``mean_utilization`` (= parallelism / stage count) is the pipeline
    efficiency.
    """
    stages = {
        int(stage): value
        for stage, value in _lanes(counters, _STAGE_RE).get(prefix, {}).items()
    }
    if not stages:
        raise ValueError(
            f"no stage[<s>].busy_cycles counters under prefix {prefix!r}"
        )
    makespan = int(_scoped(counters, prefix, "makespan_cycles"))
    rows = []
    for stage in sorted(stages):
        busy = int(stages[stage])
        rows.append(
            {
                "stage": stage,
                "busy_cycles": busy,
                "utilization": busy / makespan if makespan else 0.0,
                "bubble_cycles": max(makespan - busy, 0),
            }
        )
    total_busy = sum(row["busy_cycles"] for row in rows)
    total_bubble = sum(row["bubble_cycles"] for row in rows)
    parallelism = total_busy / makespan if makespan else 0.0
    return {
        "prefix": prefix,
        "makespan_cycles": makespan,
        "stage_count": len(rows),
        "stages": rows,
        "total_busy_cycles": total_busy,
        "total_bubble_cycles": total_bubble,
        "parallelism": parallelism,
        "mean_utilization": parallelism / len(rows),
        "events": int(_scoped(counters, prefix, "events")),
        "updates": int(_scoped(counters, prefix, "updates")),
    }


# -- GAN schedules (Fig. 8) -------------------------------------------------
def gan_prefixes(counters: Mapping[str, Number]) -> List[str]:
    """Every prefix owning ``resource[<r>].busy_cycles`` counters."""
    return sorted(_lanes(counters, _RESOURCE_RE))


def resource_utilization(
    counters: Mapping[str, Number], prefix: str = ""
) -> Dict[str, Any]:
    """Per-resource utilization of one executed GAN schedule.

    Resources are the hardware chains of
    :mod:`repro.core.schedule` (``G``, ``D0``, ``D1``); their busy
    cycles count stage-occupancy events on each chain.  The chain
    depth is not part of the counter record, so the per-resource
    metric is ``mean_busy_stages = busy_cycles / makespan`` — the mean
    number of simultaneously busy stages on that chain per cycle
    (may exceed 1 for a deep, well-filled chain).
    """
    resources = _lanes(counters, _RESOURCE_RE).get(prefix, {})
    if not resources:
        raise ValueError(
            f"no resource[<r>].busy_cycles counters under prefix {prefix!r}"
        )
    makespan = int(_scoped(counters, prefix, "makespan_cycles"))
    rows = []
    for name in sorted(resources):
        busy = int(resources[name])
        rows.append(
            {
                "resource": name,
                "busy_cycles": busy,
                "mean_busy_stages": busy / makespan if makespan else 0.0,
            }
        )
    total_busy = sum(row["busy_cycles"] for row in rows)
    return {
        "prefix": prefix,
        "makespan_cycles": makespan,
        "resources": rows,
        "total_busy_cycles": total_busy,
        "parallelism": total_busy / makespan if makespan else 0.0,
        "events": int(_scoped(counters, prefix, "events")),
        "updates": int(_scoped(counters, prefix, "updates")),
    }


# -- crossbar engines -------------------------------------------------------
def engine_prefixes(counters: Mapping[str, Number]) -> List[str]:
    """Every group prefix holding ``<layer>/mvm_calls`` subtrees.

    ``engine/fc1/mvm_calls`` yields group ``engine``; a campaign's
    ``scenario[stuck=0.01]/engine/fc1/mvm_calls`` yields
    ``scenario[stuck=0.01]/engine``.
    """
    groups = set()
    for path in counters:
        if not path.endswith("/mvm_calls"):
            continue
        layer_prefix = path[: -len("/mvm_calls")]
        group, _, layer = layer_prefix.rpartition("/")
        if layer:
            groups.add(group)
    return sorted(groups)


def _layer_metrics(
    counters: Mapping[str, Number], layer_prefix: str, layer: str
) -> Dict[str, Any]:
    record: Dict[str, Any] = {"layer": layer}
    for field in _ENGINE_FIELDS:
        record[field] = int(_scoped(counters, layer_prefix, field))
    macs = record["macs"]
    mvm_calls = record["mvm_calls"]
    record["adc_per_mac"] = (
        record["adc_conversions"] / macs if macs else None
    )
    record["reads_per_mvm"] = (
        record["array_reads"] / mvm_calls if mvm_calls else None
    )
    record["fast_ideal_fraction"] = (
        record["fast_ideal_calls"] / mvm_calls if mvm_calls else None
    )
    tiles: Dict[str, Dict[str, Number]] = {}
    marker = f"{layer_prefix}/tile["
    for path, value in counters.items():
        if not path.startswith(marker):
            continue
        match = _TILE_RE.match(path[len(layer_prefix) + 1:])
        if not match:
            continue
        tile, metric = match.groups()
        tiles.setdefault(tile, {})[metric] = value
    tile_rows = []
    total_reads = sum(int(t.get("reads", 0)) for t in tiles.values())
    for tile in sorted(tiles):
        reads = int(tiles[tile].get("reads", 0))
        tile_rows.append(
            {
                "tile": tile,
                "reads": reads,
                "adc_conversions": int(
                    tiles[tile].get("adc.conversions", 0)
                ),
                "read_share": reads / total_reads if total_reads else 0.0,
            }
        )
    record["tiles"] = tile_rows
    reads = [row["reads"] for row in tile_rows]
    record["tile_read_balance"] = (
        min(reads) / max(reads) if reads and max(reads) else None
    )
    return record


def engine_metrics(
    counters: Mapping[str, Number], prefix: str = "engine"
) -> Dict[str, Any]:
    """Per-layer and total crossbar-engine efficiency metrics.

    ``adc_per_mac`` is the headline number: I&F ADC conversions per
    multiply-accumulate, the analog-to-digital cost of the balanced
    mapping.  ``tile_read_balance`` (min/max reads across the layer's
    tiles) shows whether the bit-slice/sign planes share load evenly
    — 1.0 is a perfectly balanced Fig. 4 mapping.
    """
    layers = []
    for path in sorted(counters):
        if not path.endswith("/mvm_calls"):
            continue
        layer_prefix = path[: -len("/mvm_calls")]
        group, _, layer = layer_prefix.rpartition("/")
        if group != prefix or not layer:
            continue
        layers.append(_layer_metrics(counters, layer_prefix, layer))
    if not layers:
        raise ValueError(
            f"no <layer>/mvm_calls counters under prefix {prefix!r}"
        )
    totals: Dict[str, Any] = {
        field: sum(record[field] for record in layers)
        for field in _ENGINE_FIELDS
    }
    totals["adc_per_mac"] = (
        totals["adc_conversions"] / totals["macs"]
        if totals["macs"]
        else None
    )
    return {"prefix": prefix, "layers": layers, "totals": totals}


# -- the assembled document -------------------------------------------------
def analyze_counters(
    source: CounterSource, source_name: str = "counters"
) -> Dict[str, Any]:
    """Scan a counter map and assemble the ``analysis`` document.

    Finds every linear-pipeline, GAN-schedule, and crossbar-engine
    subtree (at any scope depth) and derives the per-subtree metrics;
    the result validates against
    :func:`repro.telemetry.validate_analysis_report` and is what
    ``repro report --json`` prints.
    """
    counters = counters_from(source)
    pipelines = [
        stage_utilization(counters, prefix)
        for prefix in schedule_prefixes(counters)
    ]
    gans = [
        resource_utilization(counters, prefix)
        for prefix in gan_prefixes(counters)
    ]
    engines = [
        engine_metrics(counters, prefix)
        for prefix in engine_prefixes(counters)
    ]
    totals: Dict[str, Any] = {"counter_count": len(counters)}
    for key in ("macs", "adc_conversions", "mvm_calls", "array_reads"):
        totals[key] = sum(
            int(group["totals"][key]) for group in engines
        )
    totals["adc_per_mac"] = (
        totals["adc_conversions"] / totals["macs"]
        if totals["macs"]
        else None
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "source": str(source_name),
        "pipelines": pipelines,
        "gan_pipelines": gans,
        "engines": engines,
        "totals": totals,
    }


# -- rendering --------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           indent: str = "  ") -> List[str]:
    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if value is None:
            return "-"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in text_rows)) if text_rows
        else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        indent + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    ]
    for row in text_rows:
        lines.append(
            indent + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return lines


def render_analysis_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of an ``analysis`` document."""
    lines: List[str] = [f"analysis of {report['source']}"]
    for pipeline in report["pipelines"]:
        name = pipeline["prefix"] or "<root>"
        lines.append(
            f"\npipeline {name}: {pipeline['stage_count']} stages, "
            f"makespan {pipeline['makespan_cycles']} cycles, "
            f"parallelism {pipeline['parallelism']:.2f} "
            f"(efficiency {pipeline['mean_utilization']:.1%})"
        )
        lines += _table(
            ("stage", "busy", "bubble", "utilization"),
            [
                (
                    row["stage"],
                    row["busy_cycles"],
                    row["bubble_cycles"],
                    f"{row['utilization']:.1%}",
                )
                for row in pipeline["stages"]
            ],
        )
    for gan in report["gan_pipelines"]:
        name = gan["prefix"] or "<root>"
        lines.append(
            f"\nGAN schedule {name}: makespan "
            f"{gan['makespan_cycles']} cycles, parallelism "
            f"{gan['parallelism']:.2f}"
        )
        lines += _table(
            ("resource", "busy", "mean_busy_stages"),
            [
                (
                    row["resource"],
                    row["busy_cycles"],
                    row["mean_busy_stages"],
                )
                for row in gan["resources"]
            ],
        )
    for engine in report["engines"]:
        totals = engine["totals"]
        lines.append(
            f"\nengine {engine['prefix'] or '<root>'}: "
            f"{len(engine['layers'])} layers, "
            f"{totals['mvm_calls']} MVM calls, "
            f"ADC/MAC "
            + (
                f"{totals['adc_per_mac']:.4g}"
                if totals["adc_per_mac"] is not None
                else "-"
            )
        )
        lines += _table(
            ("layer", "mvm_calls", "macs", "adc_conv", "adc/mac",
             "tiles", "tile_balance"),
            [
                (
                    layer["layer"],
                    layer["mvm_calls"],
                    layer["macs"],
                    layer["adc_conversions"],
                    layer["adc_per_mac"],
                    len(layer["tiles"]),
                    layer["tile_read_balance"],
                )
                for layer in engine["layers"]
            ],
        )
    if not (report["pipelines"] or report["gan_pipelines"]
            or report["engines"]):
        lines.append(
            "no pipeline, GAN, or engine subtrees found in "
            f"{report['totals']['counter_count']} counters"
        )
    return "\n".join(lines)


def _si_joules(value: float) -> str:
    """Joules with an SI prefix (energy spans ~15 orders of magnitude)."""
    for scale, suffix in ((1.0, "J"), (1e-3, "mJ"), (1e-6, "uJ"),
                          (1e-9, "nJ"), (1e-12, "pJ")):
        if abs(value) >= scale:
            return f"{value / scale:.4g} {suffix}"
    return f"{value:.4g} J"


def render_energy_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of an ``energy`` document.

    The table half of the ``repro report --energy`` surface: one row
    per counter group with its component breakdown
    (:data:`repro.telemetry.energy.ENERGY_COMPONENTS`), the roll-up
    totals with average power, and — when the counter tree carried
    ``inference.inputs`` / ``epochs`` — the per-inference and
    per-epoch figures.
    """
    from repro.telemetry.energy import ENERGY_COMPONENTS

    totals = report["totals"]
    lines: List[str] = [
        f"energy attribution of {report['source']}"
        f" ({len(report['groups'])} group(s))"
    ]
    if report["groups"]:
        lines.append("")
        lines += _table(
            ("group",) + ENERGY_COMPONENTS + ("total", "avg_power"),
            [
                tuple(
                    [group["prefix"] or "<root>"]
                    + [
                        _si_joules(group["components"][name])
                        for name in ENERGY_COMPONENTS
                    ]
                    + [
                        _si_joules(group["total_joules"]),
                        f"{group['average_watts']:.4g} W"
                        if group["simulated_seconds"]
                        else "-",
                    ]
                )
                for group in report["groups"]
            ],
            indent="",
        )
    lines.append(
        f"\ntotal {_si_joules(totals['total_joules'])} "
        f"(dynamic {_si_joules(totals['dynamic_joules'])}, "
        f"static {_si_joules(totals['components']['static'])})"
        + (
            f"; {totals['average_watts']:.4g} W average over "
            f"{totals['simulated_seconds']:.4g} simulated s"
            if totals["simulated_seconds"]
            else ""
        )
    )
    if "energy_per_inference_joules" in totals:
        lines.append(
            f"per inference: "
            f"{_si_joules(totals['energy_per_inference_joules'])} "
            f"({int(totals['inference_inputs'])} inputs)"
        )
    if "energy_per_epoch_joules" in totals:
        lines.append(
            f"per epoch: {_si_joules(totals['energy_per_epoch_joules'])} "
            f"({int(totals['epochs'])} epochs)"
        )
    if not report["groups"]:
        lines.append("no event counters found to attribute")
    return "\n".join(lines)


# -- histogram percentiles ---------------------------------------------------

#: Percentiles every latency summary derives.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def histogram_quantile(
    histogram: Mapping[str, Any], quantile: float
) -> float:
    """Estimate one quantile of a fixed-bucket histogram.

    The standard Prometheus-style estimator: find the bucket holding
    the ``quantile``-th observation and interpolate linearly inside
    it (the first bucket interpolates from 0; the overflow bucket
    clamps to the highest finite bound — fixed bounds cannot resolve
    beyond themselves).  Deterministic: a pure function of the bucket
    counts, so quantiles of deterministic histograms are themselves
    reproducible.  An empty histogram answers ``0.0``.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    bounds = [float(bound) for bound in histogram["bounds"]]
    counts = [int(count) for count in histogram["counts"]]
    total = int(histogram["count"])
    if total <= 0:
        return 0.0
    rank = quantile * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(bounds):
                return bounds[-1]
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - previous) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return bounds[-1]


def histogram_percentiles(
    histogram: Mapping[str, Any]
) -> Dict[str, float]:
    """The p50/p95/p99 summary of one histogram dict."""
    return {
        f"p{int(quantile * 100)}": histogram_quantile(
            histogram, quantile
        )
        for quantile in SUMMARY_QUANTILES
    }


def latency_summary(
    histograms: Mapping[str, Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Percentile rows for every latency histogram in a report map.

    Selects ``*_seconds`` paths (the unit-suffix grammar enforced by
    ``repro check`` rule TEL001), sorted by path; each row carries the
    observation count, mean, and the :data:`SUMMARY_QUANTILES`.
    """
    rows: List[Dict[str, Any]] = []
    for path in sorted(histograms):
        if not path.rsplit("/", 1)[-1].endswith("_seconds"):
            continue
        histogram = histograms[path]
        count = int(histogram["count"])
        row: Dict[str, Any] = {
            "path": path,
            "count": count,
            "mean": (
                float(histogram["sum"]) / count if count else 0.0
            ),
        }
        row.update(histogram_percentiles(histogram))
        rows.append(row)
    return rows


__all__ = [
    "SUMMARY_QUANTILES",
    "analyze_counters",
    "counters_from",
    "engine_metrics",
    "engine_prefixes",
    "gan_prefixes",
    "histogram_percentiles",
    "histogram_quantile",
    "latency_summary",
    "render_analysis_report",
    "render_energy_report",
    "resource_utilization",
    "schedule_prefixes",
    "stage_utilization",
]
