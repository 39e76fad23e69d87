"""Deterministic job-scheduling policy (pure planning, no I/O).

The server separates *policy* from *mechanism*: this module decides
how a set of pending jobs should execute — which inference requests
coalesce into one batched evaluation, which run alone, which kinds
never share state — and the server merely carries the plan out.
Keeping the policy pure (no clocks, no sockets, no RNG) makes the
schedule a deterministic function of the pending set, which the
drain-mode determinism tests and the ``serve_throughput`` benchmark
rely on.

Grouping rules:

* inference jobs coalesce iff they share a *compatibility key* —
  ``(workload, seed, resolved backend)``, i.e. the same programmed
  crossbar state — and the engine config is batch-invariant
  (:func:`repro.serve.batcher.batch_invariant`);
* groups are capped at ``max_coalesce`` jobs (slabs of unbounded
  width would blow the activation working set);
* training and reliability jobs never coalesce: training mutates the
  programmed state, campaigns build their own simulator fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.batcher import batch_invariant
from repro.serve.jobs import InferenceJob, JobSpec
from repro.telemetry import TelemetryLike
from repro.xbar.engine import CrossbarEngineConfig

#: Default ceiling on jobs per coalesced batch.
DEFAULT_MAX_COALESCE = 8


def compatibility_key(
    job: JobSpec, default_backend: str = "vectorized"
) -> Tuple[str, int, str]:
    """The shared-programmed-state identity of a job.

    Jobs with equal keys target byte-identical crossbar state: the
    network weights derive from ``(workload, seed)`` and the backend
    resolves against the server default.  (The full honest cache key
    additionally hashes the weights and engine config —
    :meth:`repro.api.Simulator.cache_key`; this tuple is the cheap
    planning-time view of the same identity.)
    """
    return job.workload, job.seed, job.backend or default_backend


@dataclass(frozen=True)
class Plan:
    """One scheduling decision over a pending set.

    ``groups`` are coalesced inference batches (>= 2 jobs, one batched
    evaluation each); ``singles`` run alone.  Indices refer to the
    original pending sequence, and every index appears exactly once,
    so the plan is an exact partition.
    """

    groups: Tuple[Tuple[int, ...], ...] = ()
    singles: Tuple[int, ...] = ()


def coalesce_plan(
    jobs: Sequence[JobSpec],
    engine_config: CrossbarEngineConfig,
    max_coalesce: int = DEFAULT_MAX_COALESCE,
    default_backend: str = "vectorized",
    collector: Optional[TelemetryLike] = None,
) -> Plan:
    """Partition pending ``jobs`` into coalesced groups and singles.

    Deterministic in the pending sequence: grouping preserves arrival
    order within and across groups (first-come, first-batched), so a
    drained queue always yields the same plan — and therefore the
    same batched evaluations — for the same submission order.

    ``collector`` (optional) records one
    ``coalesce/batch_size_jobs`` histogram observation per execution
    unit — ``len(group)`` for each coalesced group, ``1`` for each
    single — the distribution the ``serve_throughput`` benchmark
    gates on.
    """
    if max_coalesce < 1:
        raise ValueError(
            f"max_coalesce must be >= 1, got {max_coalesce}"
        )
    invariant = batch_invariant(engine_config)
    buckets: Dict[Tuple[str, int, str], List[int]] = {}
    singles: List[int] = []
    for index, job in enumerate(jobs):
        if not isinstance(job, InferenceJob) or not invariant:
            singles.append(index)
            continue
        buckets.setdefault(
            compatibility_key(job, default_backend), []
        ).append(index)
    groups: List[Tuple[int, ...]] = []
    for key in sorted(buckets):
        members = buckets[key]
        for start in range(0, len(members), max_coalesce):
            chunk = members[start : start + max_coalesce]
            if len(chunk) >= 2:
                groups.append(tuple(chunk))
            else:
                singles.extend(chunk)
    plan = Plan(groups=tuple(groups), singles=tuple(sorted(singles)))
    if collector is not None:
        for group in plan.groups:
            collector.observe("coalesce/batch_size_jobs", len(group))
        for _ in plan.singles:
            collector.observe("coalesce/batch_size_jobs", 1)
    return plan


__all__ = [
    "DEFAULT_MAX_COALESCE",
    "Plan",
    "coalesce_plan",
    "compatibility_key",
]
