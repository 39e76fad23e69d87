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

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.telemetry.collector import (
    HISTOGRAM_SHAPE,
    SCHEMA_VERSION,
    Collector,
)
from repro.telemetry.trace import SPAN_SHAPE, TraceSpan, span_sort_key
from repro.utils.validation import NON_NEGATIVE, Number, Where, check_document

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


def render_profile_report(document: Dict[str, Any]) -> str:
    """Text summary of a :func:`profile_report`: the ten largest counters."""
    counters = document["counters"]
    lines = [
        f"profiled `repro {' '.join(document['command'])}` in "
        f"{document['wall_time_s']:.3f} s (exit {document['exit_code']}): "
        f"{len(counters)} counters, {len(document['spans'])} spans"
        + (
            f" ({document['spans_dropped']} dropped)"
            if document["spans_dropped"]
            else ""
        ),
    ]
    top = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:10]
    width = max((len(path) for path, _ in top), default=0)
    for path, value in top:
        lines.append(f"  {path:<{width}s}  {value}")
    if len(counters) > len(top):
        lines.append(f"  ... {len(counters) - len(top)} more")
    if "chrome_trace" in document:
        lines.append(
            f"chrome trace written to {document['chrome_trace']} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    return "\n".join(lines)


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


_PROFILE_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "profile",
    "command": list, "exit_code": int, "wall_time_s": Number,
    "counters": {str: Number}, "counter_tree": dict,
    "histograms": {str: HISTOGRAM_SHAPE},
    "spans": [SPAN_SHAPE], "spans_dropped": int,
}

_BENCH_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "bench",
    "bench": str, "workload": str, "backend": str,
    "wall_time_s": NON_NEGATIVE, "counters": dict,
    "metrics?": {str: Number},
}


def validate_profile_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid profile report."""
    check_document(document, _PROFILE_SHAPE, "profile_report")


def validate_bench_document(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid bench record."""
    check_document(document, _BENCH_SHAPE, "bench_document")


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


_CHROME_SHAPE = {
    "traceEvents": [{"name": str, "ph": str, "pid": int, "tid": int}],
}

_CHROME_SPAN_SHAPE = {"ts": Number, "dur": NON_NEGATIVE, "args": dict}


def validate_trace_chrome_document(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a Chrome trace.

    Checks the shape :func:`trace_chrome_document` emits: a
    ``traceEvents`` list of metadata (``ph == "M"``) and complete
    (``ph == "X"``) events, where every span lane (``pid``) is
    labelled by a ``process_name`` metadata event.
    """
    check_document(document, _CHROME_SHAPE, "chrome_trace")
    events = document["traceEvents"]
    labelled = {
        event["pid"] for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    for index, event in enumerate(events):
        if event["ph"] != "X":
            continue
        path = f"chrome_trace.traceEvents[{index}]"
        check_document(event, _CHROME_SPAN_SHAPE, path)
        if event["pid"] not in labelled:
            raise ValueError(
                f"{path}: span lane pid={event['pid']} has no "
                "process_name metadata event"
            )


_ANALYSIS_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "analysis", "source": str,
    "pipelines": [{
        "prefix": str, "makespan_cycles": Number, "stage_count": int,
        "stages": [{
            "busy_cycles": Number, "bubble_cycles": Number,
            "utilization": Where(Number, lambda u: 0 <= u <= 1, "[0, 1]"),
        }],
        "total_busy_cycles": Number, "total_bubble_cycles": Number,
        "parallelism": Number, "mean_utilization": Number,
    }],
    "gan_pipelines": [{
        "prefix": str, "makespan_cycles": Number, "resources": list,
        "parallelism": Number,
    }],
    "engines": [{
        "prefix": str, "layers": [{"layer": str, "mvm_calls": Number}],
        "totals": dict,
    }],
    "totals": dict,
}


def validate_analysis_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid analysis report.

    The analysis report is what :func:`repro.telemetry.analyze_counters`
    builds and ``repro report --json`` prints: derived metrics
    (utilization, bubbles, ADC-per-MAC) over a counter map.
    """
    check_document(document, _ANALYSIS_SHAPE, "analysis_report")
    for index, pipeline in enumerate(document["pipelines"]):
        makespan = pipeline["makespan_cycles"]
        for stage in pipeline["stages"]:
            if stage["busy_cycles"] + stage["bubble_cycles"] != makespan:
                raise ValueError(
                    f"analysis_report.pipelines[{index}]: stage "
                    f"busy+bubble != makespan {makespan}: {stage!r}"
                )
