"""Structured JSONL event log: one line per job lifecycle transition.

The serve stack's third observability surface (after metrics and
traces): an append-only machine-readable journal.  Each line is a
schema-versioned :func:`event_record` — the job's id, tenant, kind,
the lifecycle ``event`` (``submitted`` / ``dispatched`` / ``done`` /
``error``), the trace ids tying the line to ``GET /v1/traces/<id>``,
and a server-local monotonic ``seq`` standing in for a timestamp
(events carry **no wall-clock**, so a drained-mode server's event log
is as replayable as its job reports).

Writers flush per line: ``tail -f`` on the ``--event-log`` file
follows a live server, and a crash loses at most the line being
written.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, Mapping, Optional, TextIO, Type, Union

from repro.telemetry.collector import SCHEMA_VERSION
from repro.utils.validation import COUNT, check_document

#: Lifecycle transitions a job record can journal, in order.
EVENT_NAMES = ("submitted", "dispatched", "done", "error")

_EVENT_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "event", "seq": COUNT,
    "event": frozenset(EVENT_NAMES), "job_id": str, "tenant": str,
    "job_kind": str, "trace_id": str,
}


def event_record(
    seq: int,
    event: str,
    job_id: str,
    tenant: str,
    job_kind: str,
    trace_id: str,
    span_id: Optional[str] = None,
    attrs: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One schema-versioned lifecycle event, ready to serialize."""
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "event",
        "seq": int(seq),
        "event": str(event),
        "job_id": str(job_id),
        "tenant": str(tenant),
        "job_kind": str(job_kind),
        "trace_id": str(trace_id),
    }
    if span_id is not None:
        record["span_id"] = str(span_id)
    if attrs:
        record["attrs"] = dict(attrs)
    return record


def validate_event_record(record: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid event line."""
    check_document(record, _EVENT_SHAPE, "event_record")


class EventLogWriter:
    """Append-only JSONL writer with per-line flush.

    One writer per server; :meth:`write` validates and serializes one
    record per line (sorted keys, so a given record always writes the
    same bytes).  Usable as a context manager.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = self.path.open(
            "a", encoding="utf-8"
        )

    def write(self, record: Mapping[str, Any]) -> None:
        """Validate and append one event line, flushing immediately."""
        if self._handle is None:
            raise ValueError(f"event log {self.path} is closed")
        validate_event_record(record)
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()


def read_event_log(path: Union[str, Path]) -> "list[Dict[str, Any]]":
    """Parse and validate every line of an event-log file."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        validate_event_record(record)
        records.append(record)
    return records


__all__ = [
    "EVENT_NAMES",
    "EventLogWriter",
    "event_record",
    "read_event_log",
    "validate_event_record",
]
