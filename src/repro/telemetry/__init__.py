"""Hierarchical telemetry & profiling for the whole simulation stack.

The accelerator's claims are counted events, so counting is a layer,
not a logger: one :class:`Collector` threads through the crossbar
engine (both backends, bit-identical counters), the pipeline schedule
simulators, the training loop, and the reliability campaigns, keyed by
``/``-separated component paths.  Timing :meth:`~Collector.span`\\ s
ride along for profiling: they are :class:`TraceSpan`\\ s (the one
span model, shared with the serve/sweep traces) whose wall-clock
start and duration are excluded from every determinism contract, and
:func:`trace_chrome_document` (the one Chrome-trace exporter) renders
them for ``chrome://tracing`` or Perfetto.

Raw counters are *consumed* by :mod:`repro.telemetry.analysis`, which
derives the paper-level efficiency metrics (stage utilization and
bubbles for the Fig. 5 / Fig. 8 pipelines, ADC conversions per MAC and
tile occupancy for the engine) from any counter map.

Quick start::

    from repro import Simulator
    from repro.api import InferenceJob
    from repro.telemetry import (
        Collector, analyze_counters, trace_chrome_document,
    )
    from repro.utils.io import write_json_atomic

    collector = Collector()
    sim = Simulator.from_workload("mlp", seed=0, collector=collector)
    sim.run(InferenceJob(workload="mlp", seed=0, count=32))
    print(collector.counters())          # engine/<layer>/... hierarchy
    report = analyze_counters(collector)  # derived metrics document
    write_json_atomic("trace.json",               # chrome://tracing
                      trace_chrome_document(collector.spans()))

CLI: ``repro profile <subcommand> ...`` runs any existing subcommand's
workload under a collector and emits the raw report; ``repro report``
renders the derived-metrics analysis of a profile (or of a freshly
run subcommand).

Three further observability surfaces build on the collector for the
serve/sweep stack: deterministic distributed tracing
(:mod:`repro.telemetry.trace` — logical-clock spans that stitch across
processes), Prometheus text exposition
(:mod:`repro.telemetry.metrics` — ``GET /v1/metrics``), and a
structured JSONL job-lifecycle event log
(:mod:`repro.telemetry.events`).
"""

from repro.telemetry.analysis import (
    SUMMARY_QUANTILES,
    analyze_counters,
    counters_from,
    engine_metrics,
    engine_prefixes,
    gan_prefixes,
    histogram_percentiles,
    histogram_quantile,
    latency_summary,
    render_analysis_report,
    render_energy_report,
    resource_utilization,
    schedule_prefixes,
    stage_utilization,
)
from repro.telemetry.collector import (
    DROPPED_SPANS_COUNTER,
    LATENCY_BUCKET_BOUNDS,
    NULL_COLLECTOR,
    SCHEMA_VERSION,
    SIZE_BUCKET_BOUNDS,
    Collector,
    Histogram,
    ScopedCollector,
    TelemetryLike,
    default_bucket_bounds,
)
from repro.telemetry.energy import (
    COST_KEYS,
    ENERGY_COMPONENTS,
    attribute_energy,
    energy_counter_map,
    validate_cost_table,
    validate_energy_report,
)
from repro.telemetry.events import (
    EVENT_NAMES,
    EventLogWriter,
    event_record,
    read_event_log,
    validate_event_record,
)
from repro.telemetry.export import (
    bench_document,
    profile_report,
    trace_chrome_document,
    validate_analysis_report,
    validate_bench_document,
    validate_profile_report,
    validate_trace_chrome_document,
)
from repro.telemetry.metrics import (
    METRIC_NAMESPACE,
    metric_name,
    parse_prometheus,
    render_prometheus,
    sample_value,
)
from repro.telemetry.timing import wall_clock
from repro.telemetry.trace import (
    DEFAULT_MAX_SPANS,
    TraceContext,
    TraceLog,
    TraceSpan,
    span_sort_key,
    trace_document,
    trace_id_for,
    validate_trace_document,
)

__all__ = [
    "Collector",
    "ScopedCollector",
    "TelemetryLike",
    "NULL_COLLECTOR",
    "SCHEMA_VERSION",
    "DEFAULT_MAX_SPANS",
    "DROPPED_SPANS_COUNTER",
    "Histogram",
    "LATENCY_BUCKET_BOUNDS",
    "SIZE_BUCKET_BOUNDS",
    "default_bucket_bounds",
    "profile_report",
    "bench_document",
    "trace_chrome_document",
    "validate_profile_report",
    "validate_bench_document",
    "validate_analysis_report",
    "validate_trace_chrome_document",
    "analyze_counters",
    "counters_from",
    "engine_metrics",
    "engine_prefixes",
    "gan_prefixes",
    "histogram_percentiles",
    "histogram_quantile",
    "latency_summary",
    "render_analysis_report",
    "resource_utilization",
    "schedule_prefixes",
    "stage_utilization",
    "SUMMARY_QUANTILES",
    "COST_KEYS",
    "ENERGY_COMPONENTS",
    "attribute_energy",
    "energy_counter_map",
    "validate_cost_table",
    "validate_energy_report",
    "render_energy_report",
    "TraceContext",
    "TraceLog",
    "TraceSpan",
    "span_sort_key",
    "trace_document",
    "trace_id_for",
    "validate_trace_document",
    "METRIC_NAMESPACE",
    "metric_name",
    "parse_prometheus",
    "render_prometheus",
    "sample_value",
    "EVENT_NAMES",
    "EventLogWriter",
    "event_record",
    "read_event_log",
    "validate_event_record",
    "wall_clock",
]
