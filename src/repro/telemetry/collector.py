"""Hierarchical telemetry collector: counters, histograms and spans.

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
* **timing spans** — intervals opened with :meth:`span`, recorded as
  :class:`~repro.telemetry.trace.TraceSpan`\\ s on a collector-owned
  :class:`~repro.telemetry.trace.TraceLog`: the innermost open span is
  the parent, ids and logical ticks are the identity, and each span
  also carries its wall-clock start and duration.  Wall time measures
  the host, not the simulated hardware, so it is excluded from every
  equality check; exporters keep spans in a separate section.
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

import logging
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.telemetry.trace import (
    DEFAULT_MAX_SPANS,
    SCHEMA_VERSION,
    TraceContext,
    TraceLog,
    TraceSpan,
    trace_id_for,
)
from repro.utils import validation

Number = Union[int, float]

#: Shape of one :meth:`Histogram.to_dict` view.
HISTOGRAM_SHAPE = {
    "bounds": [validation.Number], "counts": [int],
    "count": int, "sum": validation.Number,
}

#: Trace id shared by every span a collector records; top-level spans
#: are its roots ``"0"``, ``"1"``, ... so span ids stay unique.
_COLLECTOR_TRACE_ID = trace_id_for("collector")

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


class Collector:
    """Hierarchical counter + span store (see module docstring).

    :meth:`scope` returns a ``Collector`` over the same store: it keeps
    a reference to its root and a path prefix (``"engine/fc1/"``; the
    root's prefix is ``""``), every mutator writes ``prefix + path``
    into the root's counters and histograms, and every span goes
    through the root's open-span state and trace log.  Read-backs
    (:meth:`get`, :meth:`counters`, :meth:`counter_tree`,
    :meth:`histograms`) see only the scope's own subtree with the
    prefix stripped, so ``scope.counters()[p] == scope.get(p)``; at the
    root that subtree is the whole store.

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
        counted under :data:`DROPPED_SPANS_COUNTER`.
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
        self._root = self
        self._prefix = ""
        self._counters: Dict[str, Number] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Span state is read and written through ``_root`` only.
        self._log = TraceLog(max_spans=max_spans)
        self._open: Optional[TraceContext] = None
        self._roots = 0
        self._drop_warned = False
        self._origin = time.perf_counter()

    def scope(self, prefix: str) -> "Collector":
        """A collector over this store that prefixes every path with
        ``prefix + '/'`` (see the class docstring)."""
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        root = self._root
        view = object.__new__(Collector)
        view.enabled = root.enabled
        view.record_spans = root.record_spans
        view.max_spans = root.max_spans
        view._root = root
        view._prefix = f"{self._prefix}{prefix.rstrip('/')}/"
        view._counters = root._counters
        view._histograms = root._histograms
        return view

    def _own(self, store: Mapping[str, Any]) -> Iterator[Tuple[str, Any]]:
        """``(path, value)`` of this collector's subtree of ``store``,
        sorted by path, with the prefix stripped."""
        prefix = self._prefix
        cut = len(prefix)
        for path in sorted(store):
            if path.startswith(prefix):
                yield path[cut:], store[path]

    # -- counters -----------------------------------------------------------
    def count(self, path: str, n: Number = 1) -> None:
        """Add ``n`` to the counter at ``path`` (creating it at 0)."""
        if not self.enabled:
            return
        path = self._prefix + path
        self._counters[path] = self._counters.get(path, 0) + n

    def set(self, path: str, value: Number) -> None:
        """Set the counter at ``path`` to an absolute value (a gauge)."""
        if not self.enabled:
            return
        self._counters[self._prefix + path] = value

    def get(self, path: str, default: Number = 0) -> Number:
        """Current value of the counter at ``path``."""
        return self._counters.get(self._prefix + path, default)

    def counters(self) -> Dict[str, Number]:
        """Flat path -> value map, sorted by path (deterministic)."""
        return dict(self._own(self._counters))

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
            self.count(path, counters[path])

    def counter_tree(self) -> Dict[str, Any]:
        """Counters nested by ``/`` path segment.

        A path that is both a node and a leaf keeps its leaf value
        under the empty-string key of the node dict.
        """
        tree: Dict[str, Any] = {}
        for path, value in self._own(self._counters):
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
                existing[""] = value
            else:
                node[leaf] = value
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
        path = self._prefix + path
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

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Flat path -> histogram-dict map, sorted by path."""
        return {
            path: histogram.to_dict()
            for path, histogram in self._own(self._histograms)
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
            key = self._prefix + path
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(view["bounds"])
                self._histograms[key] = histogram
            histogram.merge(view)

    # -- spans --------------------------------------------------------------
    @contextmanager
    def span(self, path: str) -> Iterator[None]:
        """Time a block of work as one span named ``prefix + path``.

        The innermost open span of the root is the parent; the closed
        :class:`~repro.telemetry.trace.TraceSpan` carries its wall
        start and duration, which no determinism contract covers.
        """
        if not (self.enabled and self.record_spans):
            yield
            return
        root = self._root
        path = self._prefix + path
        parent = root._open
        if parent is None:
            context = TraceContext(
                _COLLECTOR_TRACE_ID, str(root._roots), None, path, root._log
            )
            root._roots += 1
        else:
            context = parent.start(path)
        root._open = context
        start = time.perf_counter()
        try:
            yield
        finally:
            context.wall_start_s = start - root._origin
            context.wall_duration_s = time.perf_counter() - start
            root._open = parent
            dropped = root._log.dropped
            context.finish()
            if root._log.dropped > dropped:
                # Surface the overflow instead of discarding silently:
                # account the drop as a counter (visible in every
                # report) and warn once per collector.
                root.count(DROPPED_SPANS_COUNTER)
                if not root._drop_warned:
                    root._drop_warned = True
                    _log.warning(
                        "span buffer full (max_spans=%d): dropping "
                        "further spans; drops are counted under %r",
                        root.max_spans,
                        DROPPED_SPANS_COUNTER,
                    )

    def spans(self) -> List[TraceSpan]:
        """The root's recorded spans, in closing order."""
        return self._root._log.spans()

    def __bool__(self) -> bool:
        """Truthy iff enabled — lets hooks guard optional aggregation."""
        return self.enabled

    def __repr__(self) -> str:
        return (
            f"Collector(prefix={self._prefix!r}, enabled={self.enabled}, "
            f"counters={len(self.counters())}, "
            f"spans={len(self.spans())})"
        )

    # -- export -------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """JSON-able document: counters (deterministic) + spans (not).

        The counter section is byte-stable across runs with the same
        seed and across engine backends; the span section measures the
        host and is excluded from every equality check.
        """
        log = self._root._log
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": self.counters(),
            "counter_tree": self.counter_tree(),
            "histograms": self.histograms(),
            "spans": log.to_dicts(),
            "spans_dropped": log.dropped,
        }


#: Shared disabled collector: the ``collector or NULL_COLLECTOR``
#: fallback that makes every instrumentation hook a cheap no-op when
#: telemetry is off.  Never enable or write through this instance.
NULL_COLLECTOR = Collector(enabled=False)
