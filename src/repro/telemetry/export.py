"""Stable JSON documents built from a telemetry collector.

Three document kinds leave this module, plus the one Chrome-trace
exporter (:func:`trace_chrome_document`) for every span the repo
records:

* **profile reports** — what ``repro profile <subcommand> --json``
  emits: :meth:`Collector.report` (the hierarchical counter map —
  deterministic: byte-identical across backends and across same-seed
  runs — histograms, and the timing spans, whose wall times are not
  deterministic) plus the wrapped command, its exit code and wall
  time, and the path of the written Chrome-trace file.
* **benchmark documents** — the machine-readable ``BENCH_*.json``
  files the benchmark harness records next to its text tables, seeding
  the perf trajectory (workload, backend, wall time, key counters,
  and an optional deterministic ``metrics`` map the baseline
  comparison of :mod:`repro.bench` gates on).
* **analysis reports** — derived metrics
  (:func:`repro.telemetry.analyze_counters`) that ``repro report``
  emits: stage utilization, bubbles, ADC-per-MAC over a counter map.

All carry ``schema_version`` and have a structural validator here so
CI can assert the schema without external dependencies.
"""

from __future__ import annotations

from numbers import Number as _NumberABC
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.telemetry.collector import SCHEMA_VERSION, Collector
from repro.telemetry.trace import TraceSpan, span_sort_key

_PROFILE_REQUIRED = {
    "schema_version": int,
    "kind": str,
    "command": list,
    "exit_code": int,
    "wall_time_s": _NumberABC,
    "counters": dict,
    "counter_tree": dict,
    "histograms": dict,
    "spans": list,
    "spans_dropped": int,
}

_BENCH_REQUIRED = {
    "schema_version": int,
    "kind": str,
    "bench": str,
    "workload": str,
    "backend": str,
    "wall_time_s": _NumberABC,
    "counters": dict,
}


def profile_report(
    collector: Collector,
    command: Sequence[str],
    exit_code: int,
    wall_time_s: float,
    chrome_trace: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``repro profile`` JSON document for one wrapped command."""
    document: Dict[str, Any] = {
        "kind": "profile",
        "command": list(command),
        "exit_code": int(exit_code),
        "wall_time_s": float(wall_time_s),
        **collector.report(),
    }
    if chrome_trace is not None:
        document["chrome_trace"] = str(chrome_trace)
    return document


def bench_document(
    bench: str,
    workload: str,
    backend: str,
    wall_time_s: float,
    counters: Dict[str, Any],
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One machine-readable benchmark record (``BENCH_*.json``)."""
    document: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "bench": str(bench),
        "workload": str(workload),
        "backend": str(backend),
        "wall_time_s": float(wall_time_s),
        "counters": dict(counters),
    }
    if extra:
        document.update(extra)
    return document


def _check_fields(document: Dict[str, Any], required: Dict[str, type],
                  kind: str) -> None:
    if not isinstance(document, dict):
        raise ValueError(f"{kind} document must be a dict, got "
                         f"{type(document).__name__}")
    for field, field_type in required.items():
        if field not in document:
            raise ValueError(f"{kind} document missing field {field!r}")
        if field_type is int and isinstance(document[field], bool):
            raise ValueError(f"{kind} field {field!r} must be an int")
        if not isinstance(document[field], field_type):
            raise ValueError(
                f"{kind} field {field!r} must be "
                f"{getattr(field_type, '__name__', field_type)}, got "
                f"{type(document[field]).__name__}"
            )
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{kind} schema_version {document['schema_version']!r} != "
            f"{SCHEMA_VERSION}"
        )


def validate_profile_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid profile report."""
    _check_fields(document, _PROFILE_REQUIRED, "profile")
    if document["kind"] != "profile":
        raise ValueError(f"profile kind {document['kind']!r} != 'profile'")
    for path, value in document["counters"].items():
        if not isinstance(path, str) or isinstance(value, bool) or \
                not isinstance(value, _NumberABC):
            raise ValueError(f"counter {path!r} -> {value!r} is not a "
                             "string path with a numeric value")
    for span in document["spans"]:
        for field in ("trace_id", "span_id", "parent_id", "name", "proc",
                      "start", "end"):
            if field not in span:
                raise ValueError(f"span record missing field {field!r}")
        if span["end"] < span["start"] or \
                span.get("wall_duration_s", 0.0) < 0:
            raise ValueError(f"span record out of range: {span!r}")


def validate_bench_document(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid bench record."""
    _check_fields(document, _BENCH_REQUIRED, "bench")
    if document["kind"] != "bench":
        raise ValueError(f"bench kind {document['kind']!r} != 'bench'")
    if document["wall_time_s"] < 0:
        raise ValueError("bench wall_time_s must be >= 0")
    metrics = document.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            raise ValueError("bench metrics must be a dict")
        for name, value in metrics.items():
            if not isinstance(name, str) or isinstance(value, bool) or \
                    not isinstance(value, _NumberABC):
                raise ValueError(
                    f"bench metric {name!r} -> {value!r} is not a string "
                    "name with a numeric value"
                )


def trace_chrome_document(
    spans: Sequence[Union[TraceSpan, Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Chrome-trace JSON for trace spans, one pid per proc.

    The repo's only Chrome-trace exporter.  Spans stitched from sweep
    workers or serve execution units must not interleave in a single
    lane, so every distinct ``proc`` name gets its own pid (assigned
    by first appearance in span-id order, so the assignment is
    deterministic), with a ``process_name`` metadata event labelling
    the lane.

    The input decides the time axis.  When every span carries wall
    times (:meth:`Collector.span` spans), ``ts``/``dur`` are wall
    microseconds since the collector's origin.  Otherwise they are the
    spans' logical ticks rendered as microseconds — ordering and
    nesting are exact, absolute durations are not wall time — and
    because every input (ids, ticks, procs) is then deterministic,
    the whole document is byte-identical across same-seed runs and
    worker counts.
    """
    ordered: List[TraceSpan] = sorted(
        (
            span if isinstance(span, TraceSpan)
            else TraceSpan.from_dict(span)
            for span in spans
        ),
        key=lambda span: (span.trace_id, span_sort_key(span.span_id)),
    )
    wall = all(
        span.wall_start_s is not None and span.wall_duration_s is not None
        for span in ordered
    )
    pids: Dict[str, int] = {}
    for span in ordered:
        if span.proc not in pids:
            pids[span.proc] = len(pids) + 1
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": proc},
        }
        for proc, pid in pids.items()
    ]
    for span in ordered:
        wall_start, wall_duration = span.wall_start_s, span.wall_duration_s
        if wall and wall_start is not None and wall_duration is not None:
            ts, dur = wall_start * 1e6, wall_duration * 1e6
        else:
            ts, dur = span.start * 1.0, (span.end - span.start) * 1.0
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": pids[span.proc],
                "tid": 1,
                "ts": ts,
                "dur": dur,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "attrs": dict(span.attrs),
                },
            }
        )
    # Chrome's trace-event format fixes this document's shape — no
    # room for a schema_version stamp the viewer would reject.
    return {  # repro: noqa[SCHEMA001]
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }


def validate_trace_chrome_document(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a Chrome trace.

    Checks the shape :func:`trace_chrome_document` emits: a
    ``traceEvents`` list of metadata (``ph == "M"``) and complete
    (``ph == "X"``) events, where every span lane (``pid``) is
    labelled by a ``process_name`` metadata event.
    """
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace must carry a traceEvents list")
    labelled = set()
    for event in events:
        if not isinstance(event, dict):
            raise ValueError("trace events must be dicts")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}")
        if event["ph"] == "M" and event["name"] == "process_name":
            labelled.add(event["pid"])
    for event in events:
        if event["ph"] != "X":
            continue
        for key in ("ts", "dur", "args"):
            if key not in event:
                raise ValueError(f"span event missing {key!r}")
        if event["dur"] < 0:
            raise ValueError("span event dur must be >= 0")
        if event["pid"] not in labelled:
            raise ValueError(
                f"span lane pid={event['pid']} has no process_name "
                "metadata event"
            )


_ANALYSIS_REQUIRED = {
    "schema_version": int,
    "kind": str,
    "source": str,
    "pipelines": list,
    "gan_pipelines": list,
    "engines": list,
    "totals": dict,
}


def validate_analysis_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid analysis report.

    The analysis report is what :func:`repro.telemetry.analyze_counters`
    builds and ``repro report --json`` prints: derived metrics
    (utilization, bubbles, ADC-per-MAC) over a counter map.
    """
    _check_fields(document, _ANALYSIS_REQUIRED, "analysis")
    if document["kind"] != "analysis":
        raise ValueError(
            f"analysis kind {document['kind']!r} != 'analysis'"
        )
    for pipeline in document["pipelines"]:
        for field in ("prefix", "makespan_cycles", "stage_count",
                      "stages", "total_busy_cycles", "total_bubble_cycles",
                      "parallelism", "mean_utilization"):
            if field not in pipeline:
                raise ValueError(
                    f"analysis pipeline missing field {field!r}"
                )
        makespan = pipeline["makespan_cycles"]
        for stage in pipeline["stages"]:
            if not 0.0 <= stage["utilization"] <= 1.0:
                raise ValueError(
                    f"stage utilization out of [0, 1]: {stage!r}"
                )
            if stage["busy_cycles"] + stage["bubble_cycles"] != makespan:
                raise ValueError(
                    f"stage busy+bubble != makespan {makespan}: {stage!r}"
                )
    for gan in document["gan_pipelines"]:
        for field in ("prefix", "makespan_cycles", "resources",
                      "parallelism"):
            if field not in gan:
                raise ValueError(f"analysis GAN missing field {field!r}")
    for engine in document["engines"]:
        for field in ("prefix", "layers", "totals"):
            if field not in engine:
                raise ValueError(
                    f"analysis engine missing field {field!r}"
                )
        for layer in engine["layers"]:
            if "layer" not in layer or "mvm_calls" not in layer:
                raise ValueError(
                    f"analysis engine layer record incomplete: {layer!r}"
                )
