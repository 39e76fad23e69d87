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
  (:attr:`repro.xbar.engine.CrossbarEngineConfig.is_batch_invariant`);
* groups are capped at ``max_coalesce`` jobs (slabs of unbounded
  width would blow the activation working set);
* training and reliability jobs never coalesce: training mutates the
  programmed state, campaigns build their own simulator fleets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.jobs import InferenceJob, JobSpec
from repro.telemetry import Collector
from repro.xbar.engine import CrossbarEngineConfig

#: Default ceiling on jobs per coalesced batch.
DEFAULT_MAX_COALESCE = 8


def compatibility_key(
    job: JobSpec, engine_config: CrossbarEngineConfig
) -> Tuple[str, int, str]:
    """The shared-programmed-state identity of a job.

    Jobs with equal keys target byte-identical crossbar state: the
    network weights derive from ``(workload, seed)`` and an unpinned
    backend resolves against ``engine_config.backend``, as the
    programmed-state cache resolves it.  (The full honest cache key
    additionally hashes the weights and engine config —
    :meth:`repro.api.Simulator.cache_key`; this tuple is the cheap
    planning-time view of the same identity.)
    """
    return job.workload, job.seed, job.backend or engine_config.backend


def coalesce_plan(
    jobs: Sequence[JobSpec],
    engine_config: CrossbarEngineConfig,
    max_coalesce: int = DEFAULT_MAX_COALESCE,
    collector: Optional[Collector] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """Partition pending ``jobs`` into execution units.

    Each unit is a tuple of indices into ``jobs``, and every index
    appears in exactly one unit.  Coalesced inference groups (>= 2
    jobs, one batched evaluation each) come first, in compatibility
    key order; then every other job as a unit of one, in arrival
    order.  Deterministic in the pending sequence, so a drained queue
    always yields the same units — and therefore the same batched
    evaluations — for the same submission order.

    ``collector`` (optional) records one
    ``coalesce/batch_size_jobs`` histogram observation per unit — the
    distribution the ``serve_throughput`` benchmark gates on.
    """
    if max_coalesce < 1:
        raise ValueError(
            f"max_coalesce must be >= 1, got {max_coalesce}"
        )
    invariant = engine_config.is_batch_invariant
    buckets: Dict[Tuple[str, int, str], List[int]] = {}
    singles: List[int] = []
    for index, job in enumerate(jobs):
        if not isinstance(job, InferenceJob) or not invariant:
            singles.append(index)
            continue
        buckets.setdefault(
            compatibility_key(job, engine_config), []
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
    units = tuple(groups) + tuple((index,) for index in sorted(singles))
    if collector is not None:
        for unit in units:
            collector.observe("coalesce/batch_size_jobs", len(unit))
    return units


__all__ = [
    "DEFAULT_MAX_COALESCE",
    "coalesce_plan",
    "compatibility_key",
]
