"""Cross-request batching: coalesce inference jobs, bit-exactly.

The vectorized backend collapses a batch of crossbar evaluations into
a handful of matmuls, so evaluating N requests' inputs in one forward
pass costs barely more than one request — *if* the result of each row
does not depend on which other rows share the batch.  That
batch-invariance holds exactly when

* ``activation_range`` is pinned (with ``activation_range=None`` the
  activation quantization scale is calibrated from the observed batch
  max — a batch-composition dependence), and
* the pipeline is ideal (``config.is_ideal``): the datapath is exact
  integer arithmetic in float64, so sums are exact regardless of BLAS
  blocking, and stochastic read effects (which consume per-call RNG
  shaped by the batch) are off.

Under that predicate a coalesced forward is bit-identical to running
each member job alone, on both backends and on both the fast-ideal
and full bit-serial paths (covered by the determinism tests).  Jobs
whose config fails the predicate are simply never coalesced — the
scheduler falls back to singleton execution through the exact same
code path, trading throughput, never correctness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.serve.jobs import InferenceJob
from repro.telemetry import NULL_COLLECTOR, TelemetryLike
from repro.xbar.engine import CrossbarEngineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids the cycle)
    from repro.api import InferenceResult, Simulator


def batch_invariant(config: CrossbarEngineConfig) -> bool:
    """Whether forwards under ``config`` may be coalesced bit-exactly.

    True when each output row is a function of its input row alone:
    a pinned activation quantization range and a fully ideal pipeline
    (exact integer arithmetic, no stochastic read path).  See the
    module docstring for why both conditions are necessary.
    """
    return config.activation_range is not None and config.is_ideal


def run_coalesced(
    simulator: "Simulator",
    jobs: Sequence[InferenceJob],
    collector: TelemetryLike = NULL_COLLECTOR,
) -> List["InferenceResult"]:
    """One batched crossbar evaluation for several inference jobs.

    All ``jobs`` must share the simulator's programmed state (same
    workload/seed — enforced by :meth:`Simulator.run`'s spec check on
    the singleton path and by the scheduler's grouping here).  Each
    job's inputs are generated from its own spec, concatenated into
    one forward stream, evaluated in slabs of the *largest* member
    batch size, and split back per job.  Per-job accuracy, counts,
    and outputs are exactly what the singleton path would produce;
    only the shared engine counters (``stats``) reflect the coalesced
    schedule, which is why job reports carry per-job output digests
    rather than cumulative engine stats.  A single job runs the same
    slabs as :meth:`Simulator.run`; only two or more jobs count as a
    coalesced batch in the ``coalesced.*`` tallies.
    """
    from repro.api import InferenceResult

    if not jobs:
        return []
    per_job: List[Tuple[np.ndarray, np.ndarray]] = [
        simulator.make_inputs(job.count, input_seed=job.input_seed)
        for job in jobs
    ]
    inputs = np.concatenate([pair[0] for pair in per_job], axis=0)
    total = inputs.shape[0]
    slab = max(job.batch for job in jobs)
    outputs = []
    with collector.span("coalesced_forward"), \
            collector.timed("latency/engine_evaluate_seconds"):
        for start in range(0, total, slab):
            outputs.append(
                simulator.network.forward(
                    inputs[start : start + slab], training=False
                )
            )
    logits = np.concatenate(outputs, axis=0)
    if len(jobs) > 1:
        collector.count("coalesced.batches", 1)
        collector.count("coalesced.jobs", len(jobs))
        collector.count("coalesced.inputs", total)

    results: List[InferenceResult] = []
    offset = 0
    for job, (_, labels) in zip(jobs, per_job):
        job_logits = logits[offset : offset + job.count]
        offset += job.count
        accuracy = float(
            np.mean(np.argmax(job_logits, axis=1) == labels)
        )
        results.append(
            InferenceResult(
                accuracy=accuracy,
                count=job.count,
                outputs=job_logits,
                stats=simulator.stats(),
                engine_info=simulator.engine_info(),
            )
        )
    return results


__all__ = ["batch_invariant", "run_coalesced"]
