"""Hierarchical telemetry collector: counters and timing spans.

The accelerator's headline numbers are *counted events* — spike-driver
activations, I&F ADC conversions, crossbar reads and writes, pipeline
cycle occupancy — so observability is a first-class layer here rather
than a logger bolted on after the fact.  One :class:`Collector` holds

* **counters** — deterministic integer/float accumulators keyed by a
  ``/``-separated component path (``engine/fc1/tile[pos,0]/reads``,
  ``pipeline/stage[2].busy_cycles``).  Counters follow the simulation
  exactly: the loop and vectorized crossbar backends must produce
  **identical** counter telemetry under a shared seed (the
  bit-identity contract of :mod:`repro.xbar.engine`, extended to
  observability and enforced by the backend-equivalence tests).
* **timing spans** — wall-clock intervals opened with :meth:`span`.
  Spans are *non-deterministic by construction* (they measure the
  host, not the simulated hardware) and are therefore excluded from
  every equality check; exporters keep them in a separate section.
* **histograms** — fixed-bucket distributions recorded with
  :meth:`observe` (or the :meth:`timed` context manager for wall
  latencies).  Bucket *bounds* are deterministic constants chosen by
  the path's unit suffix (``*_seconds`` gets latency buckets,
  anything else size buckets), so a histogram of deterministic values
  (batch sizes, queue depths) is itself byte-identical across runs,
  while ``*_seconds`` histograms hold host time and follow the span
  rule: excluded from every determinism contract.

Component-path convention
-------------------------
Segments are joined with ``/`` and name the component hierarchy from
the outside in; the leaf may carry a dotted metric name::

    engine/<layer>/mvm_calls              engine-level totals
    engine/<layer>/tile[<plane>,<slice>]/adc.conversions
    pipeline/stage[<s>].busy_cycles       schedule occupancy
    train/epoch[<i>]                      (span) one training epoch
    reliability/scenario[stuck=0.01]/...  campaign sub-trees

Zero overhead when disabled
---------------------------
Every mutator begins with an ``enabled`` check, and the module-level
:data:`NULL_COLLECTOR` is a shared disabled instance: code paths take
an ``Optional[Collector]`` and fall back to it, so uninstrumented runs
execute one predictable-false branch per hook and allocate nothing.
A disabled collector records no counters, records no spans, and never
changes simulation outputs (pinned by tests).
"""

from __future__ import annotations

import json
import logging
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Number = Union[int, float]

#: Version stamp of every JSON document the telemetry layer emits.
SCHEMA_VERSION = 1

#: Default bound on recorded spans: a long training run opens one span
#: per epoch and per profiled call, and an unbounded list would grow
#: without limit.  Past the cap, spans are counted but not stored.
DEFAULT_MAX_SPANS = 100_000

#: Counter path under which a collector accounts spans it had to drop
#: because ``max_spans`` was reached — the overflow is *visible* in
#: every counter report instead of silently truncating the timeline.
DROPPED_SPANS_COUNTER = "telemetry/dropped_spans"

#: Default bucket upper bounds for ``*_seconds`` histogram paths:
#: 100 µs .. 10 s, roughly logarithmic — wide enough for a cache probe
#: and a full reliability campaign on the same axis.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for everything else (counts, sizes):
#: powers of two up to 1024 — batch sizes, queue depths, byte-ish
#: magnitudes all land usefully.
SIZE_BUCKET_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

_log = logging.getLogger("repro.telemetry")


def default_bucket_bounds(path: str) -> Tuple[float, ...]:
    """The fixed bucket bounds a histogram at ``path`` defaults to.

    Chosen by the path's unit suffix so wall-latency and size/count
    histograms each get sensible resolution without per-site tuning —
    and so the bounds are a pure function of the path (deterministic,
    identical in every process).
    """
    leaf = path.rsplit("/", 1)[-1]
    if leaf.endswith("_seconds"):
        return LATENCY_BUCKET_BOUNDS
    return SIZE_BUCKET_BOUNDS


class Histogram:
    """One fixed-bucket distribution (see the module docstring).

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; an implicit overflow bucket catches
    everything above the last bound, so ``counts`` always has
    ``len(bounds) + 1`` entries.  Bounds are fixed at creation and
    never adapt to data — that is what keeps a histogram of
    deterministic observations byte-identical across runs, worker
    counts, and merge orders.
    """

    __slots__ = ("bounds", "bucket_counts", "total_count", "total_sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(bound) for bound in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram bounds must strictly increase, got {edges}"
            )
        self.bounds: Tuple[float, ...] = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.total_count = 0
        self.total_sum = 0.0

    def observe(self, value: Number) -> None:
        """Record one observation into its bucket."""
        sample = float(value)
        self.bucket_counts[bisect_left(self.bounds, sample)] += 1
        self.total_count += 1
        self.total_sum += sample

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` view into this one.

        Bounds must match exactly — merging histograms with different
        bucket layouts would silently misplace counts.
        """
        bounds = tuple(float(bound) for bound in other["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram with bounds {bounds} into "
                f"bounds {self.bounds}"
            )
        counts = other["counts"]
        if len(counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram counts length {len(counts)} != "
                f"{len(self.bucket_counts)}"
            )
        for index, count in enumerate(counts):
            self.bucket_counts[index] += int(count)
        self.total_count += int(other["count"])
        self.total_sum += float(other["sum"])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (the wire/merge format)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.total_count,
            "sum": self.total_sum,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(buckets={len(self.bounds)}, "
            f"count={self.total_count}, sum={self.total_sum:.6g})"
        )


@dataclass(frozen=True)
class SpanRecord:
    """One closed timing span (wall-clock, non-deterministic)."""

    path: str
    start_s: float
    duration_s: float
    depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
        }


class Collector:
    """Hierarchical counter + span store (see module docstring).

    Parameters
    ----------
    enabled:
        ``False`` turns every mutator into a no-op — the collector
        records nothing and costs one branch per hook.
    record_spans:
        ``False`` keeps counters live but drops timing spans; the
        crossbar engine's *private* collector (the one backing
        ``engine.stats`` when no external collector is attached) runs
        in this mode so hot matmul loops never accumulate span
        records nobody asked for.
    max_spans:
        Bound on stored spans; further spans are timed but only
        counted in :attr:`spans_dropped`.
    """

    def __init__(
        self,
        enabled: bool = True,
        record_spans: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {max_spans}")
        self.enabled = enabled
        self.record_spans = record_spans
        self.max_spans = max_spans
        self._counters: Dict[str, Number] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[SpanRecord] = []
        self._span_depth = 0
        self._spans_dropped = 0
        self._drop_warned = False
        self._origin = time.perf_counter()

    # -- counters -----------------------------------------------------------
    def count(self, path: str, n: Number = 1) -> None:
        """Add ``n`` to the counter at ``path`` (creating it at 0)."""
        if not self.enabled:
            return
        self._counters[path] = self._counters.get(path, 0) + n

    def set(self, path: str, value: Number) -> None:
        """Set the counter at ``path`` to an absolute value (a gauge)."""
        if not self.enabled:
            return
        self._counters[path] = value

    def get(self, path: str, default: Number = 0) -> Number:
        """Current value of the counter at ``path``."""
        return self._counters.get(path, default)

    def clear(self, path: str) -> None:
        """Drop one counter (no-op if absent)."""
        self._counters.pop(path, None)

    def clear_tree(self, prefix: str) -> None:
        """Drop every counter whose path starts with ``prefix``."""
        for key in [k for k in self._counters if k.startswith(prefix)]:
            del self._counters[key]

    def counters(self) -> Dict[str, Number]:
        """Flat path -> value map, sorted by path (deterministic)."""
        return {path: self._counters[path] for path in sorted(self._counters)}

    def merge_counters(self, counters: Mapping[str, Number]) -> None:
        """Fold another collector's counter map into this one, additively.

        This is how deterministic counters cross a process boundary:
        a sweep cell runs under a private collector in its worker,
        ships :meth:`counters` back inside its payload, and the
        submitting process merges them here — in sorted-path order, so
        the merged state is identical no matter which process computed
        which cell.
        """
        if not self.enabled:
            return
        for path in sorted(counters):
            self._counters[path] = self._counters.get(path, 0) + counters[path]

    def counter_tree(self) -> Dict[str, Any]:
        """Counters nested by ``/`` path segment.

        A path that is both a node and a leaf keeps its leaf value
        under the empty-string key of the node dict.
        """
        tree: Dict[str, Any] = {}
        for path in sorted(self._counters):
            node = tree
            *parents, leaf = path.split("/")
            for segment in parents:
                child = node.get(segment)
                if not isinstance(child, dict):
                    child = {} if child is None else {"": child}
                    node[segment] = child
                node = child
            existing = node.get(leaf)
            if isinstance(existing, dict):
                existing[""] = self._counters[path]
            else:
                node[leaf] = self._counters[path]
        return tree

    # -- histograms ---------------------------------------------------------
    def observe(
        self,
        path: str,
        value: Number,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one observation into the histogram at ``path``.

        The histogram is created on first use with ``bounds`` (or the
        :func:`default_bucket_bounds` for the path); later calls must
        agree — a site passing different explicit bounds for an
        existing histogram raises rather than misbinning.
        """
        if not self.enabled:
            return
        histogram = self._histograms.get(path)
        if histogram is None:
            histogram = Histogram(
                bounds if bounds is not None else
                default_bucket_bounds(path)
            )
            self._histograms[path] = histogram
        elif bounds is not None and tuple(
            float(bound) for bound in bounds
        ) != histogram.bounds:
            raise ValueError(
                f"histogram {path!r} already exists with bounds "
                f"{histogram.bounds}"
            )
        histogram.observe(value)

    @contextmanager
    def timed(self, path: str) -> Iterator[None]:
        """Observe a block's wall-clock duration into ``path``.

        The histogram twin of :meth:`span`: same wall-clock caveat
        (``*_seconds`` histograms are excluded from determinism
        contracts), but aggregated into fixed buckets instead of
        storing one record per call — safe on hot paths.
        """
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(path, time.perf_counter() - start)

    def histogram(self, path: str) -> Optional[Histogram]:
        """The live histogram at ``path``, if one exists."""
        return self._histograms.get(path)

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Flat path -> histogram-dict map, sorted by path."""
        return {
            path: self._histograms[path].to_dict()
            for path in sorted(self._histograms)
        }

    def merge_histograms(
        self, histograms: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Fold another collector's :meth:`histograms` map into this one.

        The histogram counterpart of :meth:`merge_counters`: paths are
        merged in sorted order so cross-process aggregation lands
        identically no matter which process computed what.
        """
        if not self.enabled:
            return
        for path in sorted(histograms):
            view = histograms[path]
            histogram = self._histograms.get(path)
            if histogram is None:
                histogram = Histogram(view["bounds"])
                self._histograms[path] = histogram
            histogram.merge(view)

    # -- spans --------------------------------------------------------------
    @contextmanager
    def span(self, path: str) -> Iterator[None]:
        """Time a block of work as one wall-clock span at ``path``.

        Nesting is recorded through ``depth``; spans are never part of
        any determinism contract.
        """
        if not (self.enabled and self.record_spans):
            yield
            return
        depth = self._span_depth
        self._span_depth = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._span_depth = depth
            if len(self._spans) < self.max_spans:
                self._spans.append(
                    SpanRecord(
                        path=path,
                        start_s=start - self._origin,
                        duration_s=duration,
                        depth=depth,
                    )
                )
            else:
                # Surface the overflow instead of discarding silently:
                # account the drop as a counter (visible in every
                # report) and warn once per collector.
                self._spans_dropped += 1
                self._counters[DROPPED_SPANS_COUNTER] = (
                    self._counters.get(DROPPED_SPANS_COUNTER, 0) + 1
                )
                if not self._drop_warned:
                    self._drop_warned = True
                    _log.warning(
                        "span buffer full (max_spans=%d): dropping "
                        "further spans; drops are counted under %r",
                        self.max_spans,
                        DROPPED_SPANS_COUNTER,
                    )

    def spans(self) -> List[SpanRecord]:
        """The recorded spans, in closing order."""
        return list(self._spans)

    @property
    def spans_dropped(self) -> int:
        """Spans timed but not stored because ``max_spans`` was hit."""
        return self._spans_dropped

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Drop all counters, histograms, and spans; restart the origin."""
        self._counters.clear()
        self._histograms.clear()
        self._spans.clear()
        self._span_depth = 0
        self._spans_dropped = 0
        self._drop_warned = False
        self._origin = time.perf_counter()

    def scope(self, prefix: str) -> "ScopedCollector":
        """A view that prefixes every path with ``prefix + '/'``."""
        return ScopedCollector(self, prefix)

    def __bool__(self) -> bool:
        """Truthy iff enabled — lets hooks guard optional aggregation."""
        return self.enabled

    def __repr__(self) -> str:
        return (
            f"Collector(enabled={self.enabled}, "
            f"counters={len(self._counters)}, spans={len(self._spans)})"
        )

    # -- export -------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """JSON-able document: counters (deterministic) + spans (not).

        The counter section is byte-stable across runs with the same
        seed and across engine backends; the span section measures the
        host and is excluded from every equality check.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": self.counters(),
            "counter_tree": self.counter_tree(),
            "histograms": self.histograms(),
            "spans": [record.to_dict() for record in self._spans],
            "spans_dropped": self._spans_dropped,
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """Spans as Chrome-trace / Perfetto "complete" (``X``) events.

        Load the written file at ``chrome://tracing`` or
        https://ui.perfetto.dev to see the span hierarchy on a
        timeline.  Timestamps are microseconds since the collector's
        origin; nesting falls out of the enclosing ts/dur intervals.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "repro.telemetry"},
            }
        ]
        for record in self._spans:
            events.append(
                {
                    "name": record.path,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": record.start_s * 1e6,
                    "dur": record.duration_s * 1e6,
                    "args": {"depth": record.depth},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Write :meth:`chrome_trace` to ``path``; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace(), indent=2) + "\n")
        return path


class ScopedCollector:
    """A prefixing view onto a base collector.

    Carries the same hook API (``count`` / ``set`` / ``get`` /
    ``clear`` / ``span`` / ``scope``), rewriting every path to
    ``prefix/path`` — this is how one collector threads through nested
    components (simulator -> deployment -> engine -> tile) and ends up
    with one coherent hierarchy.
    """

    def __init__(self, base: Collector, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self._base = base
        self._prefix = prefix.rstrip("/")

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def prefix(self) -> str:
        return self._prefix

    @property
    def base(self) -> Collector:
        """The root collector this view writes into."""
        return self._base

    def _path(self, path: str) -> str:
        return f"{self._prefix}/{path}"

    def count(self, path: str, n: Number = 1) -> None:
        self._base.count(self._path(path), n)

    def set(self, path: str, value: Number) -> None:
        self._base.set(self._path(path), value)

    def get(self, path: str, default: Number = 0) -> Number:
        return self._base.get(self._path(path), default)

    def clear(self, path: str) -> None:
        self._base.clear(self._path(path))

    def clear_tree(self, prefix: str) -> None:
        self._base.clear_tree(self._path(prefix))

    def merge_counters(self, counters: Mapping[str, Number]) -> None:
        """Additively merge a counter map, rewriting paths under the scope."""
        if not self._base.enabled:
            return
        for path in sorted(counters):
            self._base.count(self._path(path), counters[path])

    def observe(
        self,
        path: str,
        value: Number,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self._base.observe(self._path(path), value, bounds=bounds)

    def timed(self, path: str) -> ContextManager[None]:
        return self._base.timed(self._path(path))

    def histogram(self, path: str) -> Optional[Histogram]:
        return self._base.histogram(self._path(path))

    def merge_histograms(
        self, histograms: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Merge a histogram map, rewriting paths under the scope."""
        if not self._base.enabled:
            return
        for path in sorted(histograms):
            view = histograms[path]
            self._base.merge_histograms({self._path(path): view})

    def span(self, path: str) -> ContextManager[None]:
        return self._base.span(self._path(path))

    def scope(self, prefix: str) -> "ScopedCollector":
        return ScopedCollector(self._base, self._path(prefix))

    def __bool__(self) -> bool:
        return self._base.enabled

    def __repr__(self) -> str:
        return f"ScopedCollector({self._prefix!r} -> {self._base!r})"


#: Any object honouring the collector hook API (a :class:`Collector`
#: or a :class:`ScopedCollector` view).
TelemetryLike = Union[Collector, ScopedCollector]

#: Shared disabled collector: the ``collector or NULL_COLLECTOR``
#: fallback that makes every instrumentation hook a cheap no-op when
#: telemetry is off.  Never enable or write through this instance.
NULL_COLLECTOR = Collector(enabled=False)
