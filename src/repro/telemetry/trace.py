"""Spans: the one span model, for distributed traces and local timing.

A *trace* is the tree of work done on behalf of one logical request —
a served job's path through queue, scheduler, cache, and engine, a
sweep's fan-out across a process pool, or a profiled command's
:meth:`~repro.telemetry.Collector.span` tree.  Spans' identity is
**deterministic by construction**:

* ``trace_id`` is a content hash of the root name
  (:func:`trace_id_for`), never wall-clock randomness;
* ``span_id`` is a hierarchical ``"0.2.1"`` path allocated by per-node
  sequence counters, so ids are unique across processes *without
  coordination* — a forked child allocates under its parent's id and
  its own sub-ids can never collide with a sibling's;
* timestamps are **logical ticks** from a per-process
  :class:`TraceLog` clock, not host time.

The result: the same seeded run produces byte-identical trace
documents and Chrome-trace exports regardless of worker count, shard
order, or cache state — traces join the repo's determinism contract
instead of being excluded from it.  A span may *also* carry host
wall-clock time (``wall_start_s`` / ``wall_duration_s``): the
collector sets them on the spans it times, sweep and serve spans
never do, and serialized spans omit them when unset.

Cross-process propagation uses the carrier pattern:
:meth:`TraceContext.fork` allocates a child span id and returns a
plain-JSON *carrier* dict; the worker process calls
:meth:`TraceContext.adopt` on it with its own :class:`TraceLog`,
records spans locally, and ships ``log.to_dicts()`` home inside its
payload; the parent :meth:`TraceLog.absorb`\\ s them in input order.
Each carrier names a ``proc`` lane, which the Chrome-trace exporter
(:func:`repro.telemetry.export.trace_chrome_document`) maps to a
distinct pid — worker spans render in their own swimlanes instead of
interleaving.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.utils.validation import NON_NEGATIVE, Number, Where, check_document

#: Version stamp of every JSON document the telemetry layer emits.
SCHEMA_VERSION = 1

#: Default bound on spans one :class:`TraceLog` stores: a long training
#: run opens one span per epoch and per profiled call, and an unbounded
#: list would grow without limit.  Past the cap, spans are counted in
#: :attr:`TraceLog.dropped` but not stored.
DEFAULT_MAX_SPANS = 100_000


def trace_id_for(name: str) -> str:
    """Deterministic 16-hex-digit trace id for a root ``name``.

    A truncated sha256 of the name under a fixed salt — two runs that
    trace the same logical root (``"job-00001"``, ``"sweep"``) get the
    same id, which is exactly what makes re-run traces comparable.
    """
    digest = hashlib.sha256(b"trace:" + name.encode("utf-8"))
    return digest.hexdigest()[:16]


def span_sort_key(span_id: str) -> Tuple[int, ...]:
    """Total order over hierarchical span ids (``"0.2" < "0.10"``)."""
    return tuple(int(part) for part in span_id.split("."))


@dataclass(frozen=True)
class TraceSpan:
    """One closed span of a trace (logical-clock interval).

    ``start`` / ``end`` are ticks of the *recording process's* logical
    clock — comparable within one ``proc`` lane, not across lanes.
    ``attrs`` is a sorted tuple of ``(key, value)`` pairs so the
    record stays hashable and its JSON form canonical.
    ``wall_start_s`` (seconds since the collector's origin) and
    ``wall_duration_s`` are host time, set only on collector spans.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    proc: str
    start: int
    end: int
    attrs: Tuple[Tuple[str, Any], ...] = ()
    wall_start_s: Optional[float] = None
    wall_duration_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "proc": self.proc,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }
        if self.wall_start_s is not None:
            record["wall_start_s"] = self.wall_start_s
        if self.wall_duration_s is not None:
            record["wall_duration_s"] = self.wall_duration_s
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TraceSpan":
        attrs = record.get("attrs") or {}
        return cls(
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_id=(
                None if record.get("parent_id") is None
                else str(record["parent_id"])
            ),
            name=str(record["name"]),
            proc=str(record["proc"]),
            start=int(record["start"]),
            end=int(record["end"]),
            attrs=tuple(sorted(attrs.items())),
            wall_start_s=_optional_float(record.get("wall_start_s")),
            wall_duration_s=_optional_float(record.get("wall_duration_s")),
        )


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


class TraceLog:
    """Per-process span store plus the process's logical clock.

    One log per process (or per isolated unit of work): the server
    keeps one, each sweep worker builds a throwaway one around its
    cell.  :meth:`absorb` folds remote spans in without advancing the
    local clock — remote ticks live in their own lane.
    """

    def __init__(
        self,
        proc: str = "main",
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {max_spans}")
        self.proc = proc
        self.max_spans = max_spans
        self._clock = 0
        self._spans: List[TraceSpan] = []
        self._dropped = 0

    def tick(self) -> int:
        """Advance and return the logical clock (first tick is 1)."""
        self._clock += 1
        return self._clock

    def add(self, span: TraceSpan) -> None:
        """Store one closed span (dropped past ``max_spans``)."""
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self._dropped += 1

    def absorb(
        self, records: Iterable[Mapping[str, Any]]
    ) -> int:
        """Fold remote span dicts in; returns how many were added."""
        added = 0
        for record in records:
            self.add(TraceSpan.from_dict(record))
            added += 1
        return added

    def spans(self) -> List[TraceSpan]:
        """Every stored span, in recording/absorption order."""
        return list(self._spans)

    def spans_for(self, trace_id: str) -> List[TraceSpan]:
        """One trace's spans, sorted by hierarchical span id."""
        return sorted(
            (span for span in self._spans if span.trace_id == trace_id),
            key=lambda span: span_sort_key(span.span_id),
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All spans as JSON-able dicts (the cross-process format)."""
        return [span.to_dict() for span in self._spans]

    @property
    def dropped(self) -> int:
        return self._dropped

    def __repr__(self) -> str:
        return (
            f"TraceLog(proc={self.proc!r}, spans={len(self._spans)}, "
            f"clock={self._clock})"
        )


class TraceContext:
    """One *open* span: the handle work holds while it runs.

    Create the root with :meth:`root`, children with :meth:`start` /
    :meth:`span`, cross-process children with :meth:`fork` (parent
    side) + :meth:`adopt` (worker side).  :meth:`finish` closes the
    span into the log exactly once.  An owner that times the span on
    the host (:meth:`repro.telemetry.Collector.span`) sets
    ``wall_start_s`` / ``wall_duration_s`` before finishing it.
    """

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        log: TraceLog,
        proc: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.log = log
        self.proc = proc if proc is not None else log.proc
        self._children = 0
        self._start = log.tick()
        self._finished = False
        self.wall_start_s: Optional[float] = None
        self.wall_duration_s: Optional[float] = None

    @classmethod
    def root(
        cls,
        name: str,
        log: TraceLog,
        trace_id: Optional[str] = None,
    ) -> "TraceContext":
        """Open the root span of a new trace (id derived from ``name``)."""
        return cls(
            trace_id=trace_id if trace_id is not None
            else trace_id_for(name),
            span_id="0",
            parent_id=None,
            name=name,
            log=log,
        )

    def _child_id(self) -> str:
        child_id = f"{self.span_id}.{self._children}"
        self._children += 1
        return child_id

    def start(self, name: str) -> "TraceContext":
        """Open a child span in the same process/log."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self._child_id(),
            parent_id=self.span_id,
            name=name,
            log=self.log,
            proc=self.proc,
        )

    @contextmanager
    def span(
        self,
        name: str,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> Iterator["TraceContext"]:
        """Child span over a ``with`` block (closed even on raise)."""
        child = self.start(name)
        try:
            yield child
        finally:
            child.finish(attrs)

    def fork(self, name: str, proc: str) -> Dict[str, Any]:
        """Allocate a child destined for another process.

        Returns the plain-JSON *carrier*: ship it to the worker (it
        pickles and round-trips through canonical JSON) and
        :meth:`adopt` it there.  The parent records nothing — the
        worker owns the span.
        """
        return {
            "trace_id": self.trace_id,
            "span_id": self._child_id(),
            "parent_id": self.span_id,
            "name": name,
            "proc": proc,
        }

    @classmethod
    def adopt(
        cls, carrier: Mapping[str, Any], log: TraceLog
    ) -> "TraceContext":
        """Open the forked span in the worker, onto the worker's log."""
        return cls(
            trace_id=str(carrier["trace_id"]),
            span_id=str(carrier["span_id"]),
            parent_id=(
                None if carrier.get("parent_id") is None
                else str(carrier["parent_id"])
            ),
            name=str(carrier["name"]),
            log=log,
            proc=str(carrier["proc"]),
        )

    def finish(
        self, attrs: Optional[Mapping[str, Any]] = None
    ) -> TraceSpan:
        """Close the span into the log; idempotence is an error."""
        if self._finished:
            raise RuntimeError(
                f"span {self.span_id!r} ({self.name!r}) already finished"
            )
        self._finished = True
        span = TraceSpan(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            proc=self.proc,
            start=self._start,
            end=self.log.tick(),
            attrs=tuple(sorted((attrs or {}).items())),
            wall_start_s=self.wall_start_s,
            wall_duration_s=self.wall_duration_s,
        )
        self.log.add(span)
        return span

    def __repr__(self) -> str:
        return (
            f"TraceContext({self.trace_id}/{self.span_id} "
            f"{self.name!r} proc={self.proc!r})"
        )


def trace_document(
    trace_id: str, spans: Iterable[TraceSpan]
) -> Dict[str, Any]:
    """Schema-versioned JSON document for one trace.

    What ``GET /v1/traces/<job_id>`` answers: the trace's spans sorted
    by hierarchical span id, plus the distinct process lanes touched.
    """
    ordered = sorted(
        (span for span in spans if span.trace_id == trace_id),
        key=lambda span: span_sort_key(span.span_id),
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace",
        "trace_id": trace_id,
        "span_count": len(ordered),
        "procs": sorted({span.proc for span in ordered}),
        "spans": [span.to_dict() for span in ordered],
    }


#: Shape of one :meth:`TraceSpan.to_dict` record.
SPAN_SHAPE = Where({
    "trace_id": str, "span_id": str, "parent_id": (str, type(None)),
    "name": str, "proc": str, "start": Number, "end": Number,
    "wall_duration_s?": NON_NEGATIVE,
}, lambda span: span["end"] >= span["start"], "a span with end >= start")

_TRACE_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "trace", "trace_id": str,
    "span_count": int, "procs": [str], "spans": [SPAN_SHAPE],
}


def validate_trace_document(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid trace doc.

    Beyond shape, checks connectivity: every non-root span's parent
    must be present, so a validated trace is one connected tree (the
    cross-process stitching contract).
    """
    check_document(document, _TRACE_SHAPE, "trace_document")
    spans = document["spans"]
    if document["span_count"] != len(spans):
        raise ValueError(
            f"trace span_count {document['span_count']} != "
            f"{len(spans)} spans"
        )
    ids = {record["span_id"] for record in spans}
    for record in spans:
        if record["trace_id"] != document["trace_id"]:
            raise ValueError(
                f"span {record['span_id']!r} belongs to trace "
                f"{record['trace_id']!r}, not {document['trace_id']!r}"
            )
        parent = record["parent_id"]
        if parent is not None and parent not in ids:
            raise ValueError(
                f"span {record['span_id']!r} has missing parent "
                f"{parent!r} — trace is not connected"
            )


__all__ = [
    "DEFAULT_MAX_SPANS",
    "SCHEMA_VERSION",
    "SPAN_SHAPE",
    "TraceContext",
    "TraceLog",
    "TraceSpan",
    "span_sort_key",
    "trace_document",
    "trace_id_for",
    "validate_trace_document",
]
