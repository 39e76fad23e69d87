"""In-memory span tracer that times calls into the program's layers.

The benchmark does not change the program: it wraps public functions
and methods from the outside (:meth:`Tracer.wrap`) so that every call
records one span ``(id, name, start, end, parent, thread)``.  Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of a
run.  A span's parent is the innermost span open on the same thread
when it started, so nested layers form a tree and
:func:`layer_summary` can split each span's duration into time spent
in its own code (self time) and time covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Union,
)

SpanName = Union[str, Callable[..., str]]


@dataclass(frozen=True)
class Span:
    """One timed call: ``perf_counter`` seconds, parent id or ``None``."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; thread-safe."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost span open on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent, threading.get_ident()
            )
            with self._lock:
                self._spans.append(record)

    def wrap(self, owner: Any, attr: str, name: SpanName) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``name`` is a span name or a function of the call's arguments
        returning one (e.g. to key an engine method by its layer).
        Class-, static- and plain methods keep their binding.
        """
        raw = inspect.getattr_static(owner, attr)
        bound = isinstance(raw, (classmethod, staticmethod))
        kind = type(raw) if bound else None
        function = raw.__func__ if bound else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                return function(*args, **kwargs)

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def write(self, path: Union[str, Path]) -> Path:
        """Dump every span as JSON (one object per span)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([asdict(span) for span in self.spans()]) + "\n"
        )
        return path


def read_spans(path: Union[str, Path]) -> List[Span]:
    """Load spans written by :meth:`Tracer.write`."""
    return [Span(**entry) for entry in json.loads(Path(path).read_text())]


def _covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


@dataclass
class LayerTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_summary(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Span name -> call count, inclusive seconds and self seconds."""
    spans = list(spans)
    own = self_times(spans)
    summary: Dict[str, LayerTotals] = {}
    for span in spans:
        totals = summary.setdefault(span.name, LayerTotals())
        totals.calls += 1
        totals.total_s += span.duration
        totals.self_s += own[span.id]
    return summary


def render_table(
    summary: Dict[str, LayerTotals],
    modeled: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Per-layer text table: host seconds beside modeled values.

    ``modeled`` maps a layer key to extra columns (e.g. modeled
    sub-cycles and joules) shown on the same row as the host time.
    """
    modeled = modeled or {}
    keys = sorted(set(summary) | set(modeled))
    header = (
        f"{'layer':<34} {'calls':>8} {'host_s':>10} {'self_s':>10} "
        f"{'subcycles':>12} {'joules':>12}"
    )
    lines = [header, "-" * len(header)]
    for key in keys:
        totals = summary.get(key, LayerTotals())
        extra = modeled.get(key, {})
        subcycles = extra.get("subcycles")
        joules = extra.get("joules")
        lines.append(
            f"{key:<34} {totals.calls:>8} {totals.total_s:>10.4f} "
            f"{totals.self_s:>10.4f} "
            f"{'' if subcycles is None else f'{subcycles:.0f}':>12} "
            f"{'' if joules is None else f'{joules:.4e}':>12}"
        )
    return "\n".join(lines)
