"""The asyncio job server: simulation-as-a-service over HTTP.

One long-lived :class:`JobServer` owns the accelerator simulation and
serves many tenants.  Requests arrive as schema-versioned JSON job
specs (:mod:`repro.serve.jobs`) on a tiny stdlib HTTP surface:

========  =======================  =====================================
method    path                     meaning
========  =======================  =====================================
POST      ``/v1/jobs``             submit a job spec -> ``job_id``
GET       ``/v1/jobs/<id>``        poll; add ``?wait=1`` to block
GET       ``/v1/stats``            server/cache/telemetry counters
GET       ``/v1/metrics``          Prometheus text exposition
GET       ``/v1/traces/<id>``      one job's trace as a span document
GET       ``/v1/healthz``          liveness probe
========  =======================  =====================================

Execution pipeline (all policy lives in :mod:`repro.serve.scheduler`):
submissions queue on the event loop, and dispatch is work-conserving.
While one of the ``workers`` pool threads is free, the dispatcher takes
everything queued at once; while all are busy the queue fills, and the
next unit to finish frees a worker for all of it.  Load, not a clock,
decides how much coalesces: an idle server runs each job the moment it
lands.  Each dispatched batch goes through
:func:`~repro.serve.scheduler.coalesce_plan`, an exact partition into
execution units — coalesced inference groups and singles — each of
which occupies one pool thread.  Cached inference units (a group, or a
lone job as a unit of one) lease programmed state from the
:class:`~repro.serve.cache.ProgrammedStateCache`; training,
reliability, and non-batch-invariant inference jobs get fresh
simulators (they mutate or own their state).  Numpy releases the GIL
inside the matmuls, so distinct models genuinely overlap; units
sharing a cached model serialize on its entry lock.

Threading discipline (the :class:`~repro.telemetry.Collector` is not
thread-safe): the shared collector is only written from the event
loop — workers record into throwaway per-unit collectors that the
loop merges after the fact — except the cache's own counters, which
are serialized by the cache lock and touch no loop-written paths.

Determinism: a job's numerical result is a function of its spec alone
(coalescing is bit-exact by construction — see
:mod:`repro.serve.batcher`), so rerunning any mix of specs reproduces
every ``result`` payload byte-for-byte; only scheduling artifacts
(the ``coalesced`` flag under live traffic) may differ.
:meth:`JobServer.run_all` enqueues a whole spec list before the
dispatcher wakes, so an idle server plans it as one batch; that pins
the schedule itself, which the determinism tests and the
``serve_throughput`` benchmark rely on.

Observability: every job gets a deterministic trace id
(:func:`repro.telemetry.trace_id_for` of its ``job_id``) with
``queue`` / ``execute`` spans on the server's logical clock; cached
inference units fork a carrier into the worker thread so
``cache_lease`` and ``engine_evaluate`` spans land in a distinct
per-unit lane of the stitched trace (``GET /v1/traces/<id>``).
Queue-wait, end-to-end, cache-lookup, and engine-evaluate latencies
record into collector histograms exposed at ``GET /v1/stats`` and —
in Prometheus text form — at ``GET /v1/metrics``; ``--event-log``
journals one JSONL :func:`repro.telemetry.event_record` per lifecycle
transition.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)
from concurrent.futures import ThreadPoolExecutor

from repro.serve.batcher import batch_invariant, run_coalesced
from repro.serve.cache import DEFAULT_MAX_ENTRIES, ProgrammedStateCache
from repro.serve.jobs import (
    JOB_KINDS,
    InferenceJob,
    JobSpec,
    ReliabilityJob,
    TrainingJob,
    job_from_dict,
)
from repro.serve.scheduler import DEFAULT_MAX_COALESCE, coalesce_plan
from repro.arch.components import event_costs
from repro.arch.params import DEFAULT_TECH
from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    EventLogWriter,
    TelemetryLike,
    TraceContext,
    TraceLog,
    attribute_energy,
    energy_counter_map,
    event_record,
    render_prometheus,
    trace_document,
    trace_id_for,
    wall_clock,
)
from repro.xbar.engine import CrossbarEngineConfig, weights_hash
from repro.utils.logging import get_logger

_log = get_logger("serve")

_T = TypeVar("_T")

#: Statuses a job record moves through (monotonically, left to right).
JOB_STATUSES = ("pending", "running", "done", "error")

#: Power-of-two grid every per-job energy contribution is rounded to
#: before entering the shared counters (~0.9 fJ, far below any single
#: event cost).  Grid multiples are exact binary floats, so the
#: cumulative ``energy/*`` counters are order-independent sums — the
#: smoke's byte-determinism check holds no matter which worker
#: finishes first.
ENERGY_QUANTUM = 2.0 ** -50


def _quantize_energy(value: float) -> float:
    """Snap ``value`` to the exact-summation grid."""
    return round(value / ENERGY_QUANTUM) * ENERGY_QUANTUM


def _counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Counters added between two :meth:`Simulator.counters_snapshot`\\ s."""
    delta = {}
    for path, value in after.items():
        change = value - before.get(path, 0.0)
        if change:
            delta[path] = change
    return delta


#: Largest request body the server reads (bytes).  Job documents are
#: well under 1 KB; a larger ``Content-Length`` is answered with 413
#: without buffering the body.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(Exception):
    """A request announced a body over :data:`MAX_BODY_BYTES`."""


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
}


def _default_engine_config() -> CrossbarEngineConfig:
    # activation_range pinned -> batch-invariant pipeline (see
    # repro.serve.batcher): coalescing and programmed-state reuse stay
    # bit-exact.  8.0 comfortably covers the synthetic workloads'
    # post-ReLU activations.
    return CrossbarEngineConfig(activation_range=8.0)


@dataclass
class ServerConfig:
    """Tunables of one :class:`JobServer` instance.

    ``engine_config`` is the pipeline every job runs under (jobs may
    still pin a ``backend``); the default pins ``activation_range`` so
    the config is batch-invariant and both coalescing and
    programmed-state reuse apply.  A non-invariant config (stochastic
    reads, observed-batch quantization) degrades gracefully: every job
    runs alone on a fresh simulator, trading throughput, never
    correctness.  ``workers`` is the pool size and the dispatch rule:
    a job is handed to a free worker the moment it arrives, and jobs
    coalesce only when they queue up behind ``workers`` busy execution
    units (at most ``max_coalesce`` per group) — no timer.
    ``cache_max_entries`` bounds the programmed-state cache
    LRU-style (``None`` disables the bound — the pre-bound behavior,
    which grows one resident deployment per distinct tenant).
    ``event_log`` (optional path) appends one JSONL event record per
    job lifecycle transition.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    max_coalesce: int = DEFAULT_MAX_COALESCE
    default_backend: str = "vectorized"
    engine_config: CrossbarEngineConfig = field(
        default_factory=_default_engine_config
    )
    cache_max_entries: Optional[int] = DEFAULT_MAX_ENTRIES
    event_log: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ValueError(
                "cache_max_entries must be >= 1 or None, got "
                f"{self.cache_max_entries}"
            )
        if self.max_coalesce < 1:
            raise ValueError(
                f"max_coalesce must be >= 1, got {self.max_coalesce}"
            )


def job_report(
    job: JobSpec,
    job_id: str,
    status: str,
    result: Optional[Dict[str, Any]] = None,
    coalesced: bool = False,
    error: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The schema-versioned document a tenant gets back for one job.

    ``result`` carries only deterministic, spec-derived values (no
    wall-clock, no cumulative engine counters shared with other
    tenants); inference results include an ``outputs_sha256`` content
    digest so bit-identity can be asserted without shipping logits.
    ``trace_id`` defaults to the deterministic
    :func:`repro.telemetry.trace_id_for` of ``job_id`` — the handle
    for ``GET /v1/traces/<job_id>``.
    """
    document: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": job.kind,
        "job_id": job_id,
        "tenant": job.tenant,
        "status": status,
        "coalesced": bool(coalesced),
        "spec": job.to_dict(),
        "result": result,
        "trace_id": (
            trace_id if trace_id is not None else trace_id_for(job_id)
        ),
    }
    if error is not None:
        document["error"] = error
    return document


#: Per-kind keys every ``done`` result payload must carry.
_RESULT_KEYS = {
    "inference": ("accuracy", "count", "outputs_sha256"),
    "training": ("final_accuracy", "epochs", "final_loss"),
    "reliability": ("schema_version", "workload", "axis"),
}


def validate_job_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a :func:`job_report` document; returns it on success."""
    if not isinstance(document, dict):
        raise ValueError(
            f"job report must be a dict, got {type(document).__name__}"
        )
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"job report schema_version {version!r} != "
            f"supported {SCHEMA_VERSION}"
        )
    kind = document.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"job report kind {kind!r} unknown")
    for key in ("job_id", "tenant", "status", "coalesced", "spec",
                "trace_id"):
        if key not in document:
            raise ValueError(f"job report missing key {key!r}")
    if not isinstance(document["trace_id"], str) or \
            not document["trace_id"]:
        raise ValueError("job report trace_id must be a non-empty str")
    status = document["status"]
    if status not in JOB_STATUSES:
        raise ValueError(f"job report status {status!r} unknown")
    spec = job_from_dict(document["spec"])
    if spec.kind != kind:
        raise ValueError(
            f"job report kind {kind!r} != spec kind {spec.kind!r}"
        )
    if status == "done":
        result = document.get("result")
        if not isinstance(result, dict):
            raise ValueError("done job report must carry a result dict")
        missing = [k for k in _RESULT_KEYS[kind] if k not in result]
        if missing:
            raise ValueError(
                f"{kind} result missing key(s): {', '.join(missing)}"
            )
    elif status == "error" and "error" not in document:
        raise ValueError("error job report must carry an 'error' message")
    return document


def validate_stats_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a :meth:`JobServer.stats_report` document."""
    if not isinstance(document, dict):
        raise ValueError(
            f"stats report must be a dict, got {type(document).__name__}"
        )
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"stats schema_version {document.get('schema_version')!r} "
            f"!= supported {SCHEMA_VERSION}"
        )
    for key, key_type in (
        ("jobs", dict),
        ("cache", dict),
        ("counters", dict),
        ("histograms", dict),
        ("queue_depth", int),
    ):
        if key not in document:
            raise ValueError(f"stats report missing key {key!r}")
        if not isinstance(document[key], key_type):
            raise ValueError(
                f"stats key {key!r} must be {key_type.__name__}, got "
                f"{type(document[key]).__name__}"
            )
    if document["queue_depth"] < 0:
        raise ValueError("stats queue_depth must be >= 0")
    for status in JOB_STATUSES:
        if status not in document["jobs"]:
            raise ValueError(f"stats jobs missing status {status!r}")
    for path, view in document["histograms"].items():
        for key in ("bounds", "counts", "count", "sum"):
            if key not in view:
                raise ValueError(
                    f"stats histogram {path!r} missing key {key!r}"
                )
    return document


def _result_payload(job: JobSpec, result: Any) -> Dict[str, Any]:
    """Deterministic JSON-able view of one job's outcome."""
    if isinstance(job, InferenceJob):
        return {
            "accuracy": result.accuracy,
            "count": result.count,
            "outputs_sha256": weights_hash(result.outputs),
        }
    if isinstance(job, TrainingJob):
        losses = result.batch_losses
        return {
            "final_accuracy": result.final_accuracy,
            "epochs": result.epochs,
            "final_loss": losses[-1] if losses else None,
        }
    return dict(result)  # reliability: the campaign document itself


@dataclass
class _JobRecord:
    """Loop-side state of one submitted job."""

    job_id: str
    spec: JobSpec
    trace: TraceContext
    status: str = "pending"
    report: Optional[Dict[str, Any]] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    queue_span: Optional[TraceContext] = None
    execute_span: Optional[TraceContext] = None
    submitted_at: float = 0.0


class JobServer:
    """Async multi-tenant front end over :class:`repro.api.Simulator`.

    Use :meth:`start` / :meth:`stop` inside a running event loop, or
    :func:`running_server` for the blocking-world tests and CLI.
    All public coroutine methods must be called on the server's loop.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        collector: Optional[TelemetryLike] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.collector: TelemetryLike = (
            collector if collector is not None else Collector()
        )
        self._serve_scope = self.collector.scope("serve")
        self._event_costs = event_costs(DEFAULT_TECH)
        self._reusable = batch_invariant(self.config.engine_config)
        self._cache = ProgrammedStateCache(
            engine_config=self.config.engine_config,
            collector=self._serve_scope,
            max_entries=self.config.cache_max_entries,
        )
        self._records: Dict[str, _JobRecord] = {}
        self._queue: "asyncio.Queue[Optional[_JobRecord]]" = asyncio.Queue()
        self._inflight: set = set()
        # Execution units handed to the pool and not yet finished; the
        # dispatcher plans again only while fewer than ``workers`` are.
        self._busy_units = 0
        self._unit_finished = asyncio.Event()
        self._next_id = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # Trace spans live on the server's logical clock (loop-thread
        # writes only; worker-side unit logs are absorbed by the loop).
        self._trace_log = TraceLog(proc="server")
        self._events: Optional[EventLogWriter] = None
        self._event_seq = 0

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket, start the worker pool and dispatcher."""
        if self.config.event_log is not None and self._events is None:
            self._events = EventLogWriter(self.config.event_log)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        host, port = self.address
        _log.info(
            "serving on %s:%d (%d workers, max_coalesce=%d, "
            "batch_invariant=%s)",
            host,
            port,
            self.config.workers,
            self.config.max_coalesce,
            self._reusable,
        )

    async def stop(self) -> None:
        """Drain in-flight work and release every resource."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            await self._queue.put(None)
            await self._dispatcher
            self._dispatcher = None
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._events is not None:
            self._events.close()
            self._events = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (port 0 resolves here)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    # -- submission ----------------------------------------------------------
    def _event(
        self,
        event: str,
        record: _JobRecord,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal one lifecycle transition (loop thread only)."""
        if self._events is None:
            return
        self._event_seq += 1
        self._events.write(
            event_record(
                self._event_seq,
                event,
                record.job_id,
                record.spec.tenant,
                record.spec.kind,
                record.trace.trace_id,
                span_id=record.trace.span_id,
                attrs=attrs,
            )
        )

    def _register(self, spec: JobSpec) -> _JobRecord:
        self._next_id += 1
        job_id = f"job-{self._next_id:05d}"
        record = _JobRecord(
            job_id=job_id,
            spec=spec,
            trace=TraceContext.root(job_id, self._trace_log),
        )
        self._records[job_id] = record
        record.queue_span = record.trace.start("queue")
        record.submitted_at = wall_clock()
        scope = self.collector.scope(f"serve/tenant[{spec.tenant}]")
        scope.count("submitted", 1)
        self._event("submitted", record)
        return record

    async def submit(self, spec: JobSpec) -> str:
        """Queue a job for the dispatcher; returns its ``job_id``."""
        record = self._register(spec)
        await self._queue.put(record)
        return record.job_id

    async def wait(self, job_id: str) -> Dict[str, Any]:
        """Block until ``job_id`` finishes; returns its report."""
        record = self._records[job_id]
        await record.done.wait()
        assert record.report is not None
        return record.report

    async def run_all(
        self, specs: Sequence[JobSpec]
    ) -> List[Dict[str, Any]]:
        """Drain mode: queue the whole spec list at once, return its
        reports in submission order.

        Every spec is queued before the dispatcher next runs, so an
        idle server plans the list as one batch and the coalescing
        plan — and therefore the exact batched evaluations and
        cache-counter tallies — is a deterministic function of
        ``specs`` alone, independent of request timing.  Used by the
        determinism tests and the throughput benchmark.
        """
        records = [self._register(spec) for spec in specs]
        for record in records:
            self._queue.put_nowait(record)
        return [await self.wait(record.job_id) for record in records]

    # -- dispatch ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Until the ``None`` stop sentinel: wait for a job, then for a
        free worker, then plan everything queued by then as one batch."""
        while True:
            batch = [await self._queue.get()]
            while self._busy_units >= self.config.workers:
                self._unit_finished.clear()
                await self._unit_finished.wait()
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            stopping = None in batch
            records = [record for record in batch if record is not None]
            if records:
                self._dispatch(records)
            if stopping:
                return

    def _dispatch(self, records: List[_JobRecord]) -> None:
        """Plan ``records`` and start one task per execution unit."""
        plan = coalesce_plan(
            [record.spec for record in records],
            self.config.engine_config,
            max_coalesce=self.config.max_coalesce,
            default_backend=self.config.default_backend,
            collector=self._serve_scope,
        )
        for record in records:
            record.status = "running"
            queue_wait = wall_clock() - record.submitted_at
            self._serve_scope.observe(
                "latency/queue_wait_seconds", queue_wait
            )
            self.collector.scope(
                f"serve/tenant[{record.spec.tenant}]"
            ).observe("latency/queue_wait_seconds", queue_wait)
            if record.queue_span is not None:
                record.queue_span.finish()
                record.queue_span = None
            record.execute_span = record.trace.start("execute")
            self._event("dispatched", record)
        units = [
            self._execute_cached([records[i] for i in group])
            for group in plan.groups
        ]
        for index in plan.singles:
            record = records[index]
            if isinstance(record.spec, InferenceJob) and self._reusable:
                units.append(self._execute_cached([record]))
            else:
                units.append(self._execute_fresh(record))
        # Counted now, not when the tasks first run, so the dispatcher
        # never sees a free worker that a unit has already claimed.
        self._busy_units += len(units)
        for unit in units:
            task = asyncio.ensure_future(unit)
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _in_worker(self, work: Callable[[], _T]) -> _T:
        """Run one unit's ``work`` on the pool, then free its worker."""
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, work
            )
        finally:
            self._busy_units -= 1
            self._unit_finished.set()

    # -- execution units -----------------------------------------------------
    async def _execute_cached(self, records: List[_JobRecord]) -> None:
        """Inference on leased programmed state: a coalesced group, or
        one job as a unit of one."""
        local = Collector(record_spans=False)
        specs = [record.spec for record in records]
        leader = records[0]
        carrier = leader.trace.fork("unit", proc=f"unit[{leader.job_id}]")

        def work() -> Tuple[list, List[Dict[str, Any]], Dict[str, float]]:
            # Worker-side spans live on a throwaway per-unit log with
            # its own proc lane; the loop absorbs them afterwards so
            # the shared trace log stays loop-thread-only.
            unit_log = TraceLog(proc=str(carrier["proc"]))
            ctx = TraceContext.adopt(carrier, unit_log)
            with ctx.span("cache_lease"):
                entry = self._cache.lease(specs[0])
            with entry.lock, ctx.span("engine_evaluate"):
                before = entry.simulator.counters_snapshot()
                results = run_coalesced(
                    entry.simulator, specs, collector=local
                )
                delta = _counter_delta(
                    before, entry.simulator.counters_snapshot()
                )
            ctx.finish({"jobs": len(specs)})
            return results, unit_log.to_dicts(), delta

        try:
            results, unit_spans, delta = await self._in_worker(work)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._fail(records, exc)
            return
        self._trace_log.absorb(unit_spans)
        self._merge(self._serve_scope, local)
        # One evaluation priced once, split across the unit's jobs in
        # proportion to their input counts.
        energy = self._price_energy(delta)
        total_inputs = sum(record.spec.count for record in records)
        coalesced = len(records) > 1
        for record, result in zip(records, results):
            self._record_energy(
                record.spec.tenant,
                energy,
                share=record.spec.count / total_inputs,
            )
            self._finish(record, result, coalesced=coalesced)

    async def _execute_fresh(self, record: _JobRecord) -> None:
        """One job on its own simulator: training, reliability, and
        inference under a non-batch-invariant config."""
        local = Collector(record_spans=False)
        spec = record.spec

        def work() -> Any:
            from repro.api import run_job

            if isinstance(spec, ReliabilityJob):
                return run_job(spec, collector=local)
            return run_job(
                spec,
                engine_config=self._cache.resolved_config(spec.backend),
                collector=local,
            )

        try:
            result = await self._in_worker(work)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._fail([record], exc)
            return
        tenant_scope = self.collector.scope(
            f"serve/tenant[{spec.tenant}]"
        )
        self._merge(tenant_scope, local)
        self._record_energy(
            spec.tenant, self._price_energy(local.counters())
        )
        self._finish(record, result, coalesced=False)

    # -- completion (event-loop thread only) ---------------------------------
    @staticmethod
    def _merge(target: TelemetryLike, local: Collector) -> None:
        for path, value in local.counters().items():
            target.count(path, value)
        target.merge_histograms(local.histograms())

    # -- energy attribution (event-loop thread only) -------------------------
    def _price_energy(
        self, counters: Dict[str, float]
    ) -> Dict[str, float]:
        """Price a job's event-counter delta into ``energy/*`` counters.

        Returns the :func:`repro.telemetry.energy_counter_map` of the
        attributed report — per-component ``..._joules``, the total,
        and ``simulated_seconds`` — or ``{}`` when the run emitted no
        priceable events (e.g. the exact-matmul fallback).
        """
        if not counters:
            return {}
        report = attribute_energy(
            counters, self._event_costs, source_name="serve"
        )
        if not report["groups"]:
            return {}
        return energy_counter_map(report)

    def _record_energy(
        self,
        tenant: str,
        energy: Dict[str, float],
        share: float = 1.0,
    ) -> None:
        """Add one job's energy slice to its tenant and the serve totals.

        Each contribution is quantized to :data:`ENERGY_QUANTUM` so the
        cumulative counters are exact (order-independent) sums, then
        the ``energy/average_watts`` gauge is re-derived from the
        cumulative joules over cumulative simulated seconds.  A job
        that priced nothing (a warm fast-ideal run) still opens its
        tenant's ``energy/total_joules`` series at zero, so which
        series exist does not depend on the schedule.
        """
        tenant_scope = self.collector.scope(f"serve/tenant[{tenant}]")
        if not energy:
            tenant_scope.count("energy/total_joules", 0.0)
            return
        for name, value in energy.items():
            slice_value = _quantize_energy(value * share)
            tenant_scope.count(name, slice_value)
            self._serve_scope.count(name, slice_value)
        for scope in (tenant_scope, self._serve_scope):
            seconds = scope.get("energy/simulated_seconds")
            if seconds > 0.0:
                scope.set(
                    "energy/average_watts",
                    scope.get("energy/total_joules") / seconds,
                )

    def _close_spans(
        self,
        record: _JobRecord,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if record.queue_span is not None:
            record.queue_span.finish()
            record.queue_span = None
        if record.execute_span is not None:
            record.execute_span.finish(attrs)
            record.execute_span = None
        record.trace.finish()

    def _finish(
        self, record: _JobRecord, result: Any, coalesced: bool
    ) -> None:
        spec = record.spec
        record.status = "done"
        self._close_spans(record, {"coalesced": coalesced})
        record.report = job_report(
            spec,
            record.job_id,
            "done",
            result=_result_payload(spec, result),
            coalesced=coalesced,
            trace_id=record.trace.trace_id,
        )
        e2e = wall_clock() - record.submitted_at
        scope = self.collector.scope(f"serve/tenant[{spec.tenant}]")
        scope.count(f"jobs[{spec.kind}]", 1)
        scope.observe("latency/e2e_seconds", e2e)
        self._serve_scope.observe("latency/e2e_seconds", e2e)
        self._serve_scope.count("jobs.done", 1)
        self._event("done", record, {"coalesced": coalesced})
        record.done.set()

    def _fail(self, records: List[_JobRecord], exc: Exception) -> None:
        _log.warning("job execution failed: %s", exc)
        for record in records:
            record.status = "error"
            self._close_spans(record, {"error": type(exc).__name__})
            record.report = job_report(
                record.spec,
                record.job_id,
                "error",
                error=f"{type(exc).__name__}: {exc}",
                trace_id=record.trace.trace_id,
            )
            self._serve_scope.count("jobs.failed", 1)
            self._event(
                "error", record, {"error": type(exc).__name__}
            )
            record.done.set()

    # -- stats ---------------------------------------------------------------
    def stats_report(self) -> Dict[str, Any]:
        """Server-wide counters as a schema-versioned document."""
        by_status: Dict[str, int] = {
            status: 0 for status in JOB_STATUSES
        }
        for record in self._records.values():
            by_status[record.status] += 1
        counters = {
            path: value
            for path, value in self.collector.counters().items()
            if path.startswith("serve/")
        }
        histograms = {
            path: view
            for path, view in self.collector.histograms().items()
            if path.startswith("serve/")
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "jobs": by_status,
            "cache": self._cache.stats(),
            "counters": counters,
            "histograms": histograms,
            "queue_depth": self._queue.qsize(),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition body (``GET /v1/metrics``)."""
        return render_prometheus(
            self.collector.counters(), self.collector.histograms()
        )

    def trace_report(self, job_id: str) -> Dict[str, Any]:
        """One job's stitched trace as a schema-versioned document."""
        trace_id = self._records[job_id].trace.trace_id
        return trace_document(
            trace_id, self._trace_log.spans_for(trace_id)
        )

    # -- HTTP front end ------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, target, body = await self._read_request(reader)
            status, document = await self._route(method, target, body)
        except _BodyTooLarge as exc:
            status, document = 413, {"error": str(exc)}
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ) as exc:
            status, document = 400, {"error": str(exc)}
        try:
            # A plain-str body ships as-is (the Prometheus text
            # exposition); everything else is a JSON document.
            if isinstance(document, str):
                payload = document.encode()
                content_type = "text/plain; version=0.0.4"
            else:
                payload = json.dumps(document).encode()
                content_type = "application/json"
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            writer.write(head + payload)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        path, _, query = target.partition("?")
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"schema_version": SCHEMA_VERSION, "ok": True}
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self.stats_report()
        if path == "/v1/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self.metrics_text()
        if path.startswith("/v1/traces/"):
            if method != "GET":
                return 405, {"error": "GET only"}
            job_id = path[len("/v1/traces/") :]
            if job_id not in self._records:
                return 404, {"error": f"unknown job {job_id!r}"}
            return 200, self.trace_report(job_id)
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                document = json.loads(body.decode() or "null")
                spec = job_from_dict(document)
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            job_id = await self.submit(spec)
            return 202, {
                "schema_version": SCHEMA_VERSION,
                "job_id": job_id,
                "status": "pending",
            }
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "GET only"}
            job_id = path[len("/v1/jobs/") :]
            record = self._records.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if "wait=1" in query.split("&"):
                await record.done.wait()
            if record.report is not None:
                return 200, record.report
            return 200, {
                "schema_version": SCHEMA_VERSION,
                "job_id": job_id,
                "status": record.status,
            }
        return 404, {"error": f"no route for {method} {path}"}


@contextmanager
def running_server(
    config: Optional[ServerConfig] = None,
    collector: Optional[TelemetryLike] = None,
) -> Iterator[Tuple[JobServer, Tuple[str, int]]]:
    """Run a :class:`JobServer` on a background event-loop thread.

    The blocking-world entry point (tests, CLI smoke): yields the
    server and its bound address; tears everything down on exit.
    Drive it over HTTP with :class:`repro.serve.client.ServeClient`,
    or call coroutine methods via :func:`call_on` below.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-serve-loop", daemon=True
    )
    thread.start()
    server = JobServer(config=config, collector=collector)
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result()
        try:
            yield server, server.address
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result()
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


def call_on(server: JobServer, coroutine: Any) -> Any:
    """Run a server coroutine from outside its loop thread, blocking.

    Convenience for :func:`running_server` users:
    ``call_on(server, server.run_all(specs))``.
    """
    loop = _loop_of(server)
    return asyncio.run_coroutine_threadsafe(coroutine, loop).result()


def _loop_of(server: JobServer) -> asyncio.AbstractEventLoop:
    if server._server is None:
        raise RuntimeError("server is not running")
    return server._server.get_loop()


__all__ = [
    "JOB_STATUSES",
    "JobServer",
    "ServerConfig",
    "call_on",
    "job_report",
    "running_server",
    "validate_job_report",
    "validate_stats_report",
]
