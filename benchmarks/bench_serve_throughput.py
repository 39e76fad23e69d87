"""Job-server throughput: coalesced + cached serving vs naive runs.

Drives the ``repro.serve`` stack in drain mode (``JobServer.run_all``)
with a deterministic multi-tenant inference mix, and compares against
the naive baseline every tenant would otherwise run: a fresh
``Simulator`` deployment per request.  The server amortizes array
programming through the programmed-state cache and collapses
compatible requests into coalesced batched evaluations — while every
per-job logits digest stays byte-identical to the naive path (asserted
here; that is the serving contract, not a tolerance).

Recorded metrics are scheduling/cache tallies plus the deterministic
half of the latency telemetry: histogram observation counts (one
queue-wait and one end-to-end sample per drained job, exactly) and the
coalesce batch-size percentiles, which are pure functions of the
schedule.  Wall time, jobs/s, and the *values* of the ``*_seconds``
histograms stay outside ``metrics`` so the baseline gate never bands
a wall-clock number — the latency percentile table is recorded in the
document's ``latency`` extra instead.
"""

from __future__ import annotations

import time

from benchmarks._common import format_table, record, record_json
from repro.api import InferenceJob, Simulator
from repro.bench import register
from repro.serve.server import ServerConfig, call_on, running_server
from repro.telemetry import Collector, histogram_percentiles, latency_summary
from repro.telemetry import bench_document as _bench_document
from repro.xbar.engine import weights_hash

JOBS = 16
SEED = 3


def _jobs():
    """A deterministic two-model, three-tenant inference mix."""
    return [
        InferenceJob(
            workload="mlp",
            seed=SEED + (index % 2),
            count=16,
            batch=8,
            input_seed=None if index % 4 == 0 else 50 + index % 8,
            tenant=f"tenant{index % 3}",
        )
        for index in range(JOBS)
    ]


@register(suite="quick")
def bench_serve_throughput():
    jobs = _jobs()

    # Naive baseline: each request deploys its own simulator.
    start = time.perf_counter()
    naive_digests = []
    for job in jobs:
        sim = Simulator.from_workload(
            job.workload,
            engine_config=ServerConfig().engine_config,
            seed=job.seed,
        )
        naive_digests.append(weights_hash(sim.run(job).outputs))
    naive_s = time.perf_counter() - start

    # Served: one drain-mode plan over the same mix.
    collector = Collector()
    config = ServerConfig(workers=2)
    with running_server(config, collector=collector) as (server, _):
        start = time.perf_counter()
        reports = call_on(server, server.run_all(jobs))
        served_s = time.perf_counter() - start
    served_digests = [
        report["result"]["outputs_sha256"] for report in reports
    ]
    # The serving contract: batching/caching changes throughput only.
    assert served_digests == naive_digests
    assert all(report["status"] == "done" for report in reports)

    counters = collector.counters()
    histograms = collector.histograms()
    batch_size = histograms["serve/coalesce/batch_size_jobs"]
    batch_percentiles = histogram_percentiles(batch_size)
    metrics = {
        "jobs_done": float(counters.get("serve/jobs.done", 0)),
        "cache_hits": float(counters.get("serve/cache/hits", 0)),
        "cache_misses": float(counters.get("serve/cache/misses", 0)),
        "coalesced_batches": float(
            counters.get("serve/coalesced.batches", 0)
        ),
        "coalesced_jobs": float(counters.get("serve/coalesced.jobs", 0)),
        "coalesced_inputs": float(
            counters.get("serve/coalesced.inputs", 0)
        ),
        # Deterministic latency telemetry: exactly one queue-wait and
        # one end-to-end observation per drained job, and batch-size
        # percentiles that are a pure function of the coalesce plan.
        "queue_wait_observations": float(
            histograms["serve/latency/queue_wait_seconds"]["count"]
        ),
        "e2e_observations": float(
            histograms["serve/latency/e2e_seconds"]["count"]
        ),
        "batch_size_observations": float(batch_size["count"]),
        "batch_size_p50_jobs": batch_percentiles["p50"],
        "batch_size_p95_jobs": batch_percentiles["p95"],
        "batch_size_p99_jobs": batch_percentiles["p99"],
    }
    latency = latency_summary(
        {
            path: view
            for path, view in histograms.items()
            if "tenant[" not in path
        }
    )
    speedup = naive_s / served_s
    rows = [
        ("naive", naive_s * 1e3, JOBS / naive_s, "-"),
        ("served", served_s * 1e3, JOBS / served_s, f"{speedup:.1f}x"),
    ]
    lines = [
        f"Serve throughput, {JOBS} inference jobs (2 models, 3 "
        "tenants), drain mode, 2 workers:",
        "",
    ]
    lines += format_table(
        ["path", "ms total", "jobs/s", "speedup"], rows
    )
    lines += [
        "",
        f"cache: {int(metrics['cache_misses'])} deploys for "
        f"{JOBS} jobs ({int(metrics['cache_hits'])} cache hits); "
        f"{int(metrics['coalesced_jobs'])} jobs coalesced into "
        f"{int(metrics['coalesced_batches'])} batched evaluations",
        "per-job logits digests byte-identical to the naive path",
        "",
        "served latency percentiles (wall clock; not baseline-gated):",
    ]
    lines += format_table(
        ["histogram", "n", "p50 ms", "p95 ms", "p99 ms"],
        [
            (
                row["path"],
                row["count"],
                row["p50"] * 1e3,
                row["p95"] * 1e3,
                row["p99"] * 1e3,
            )
            for row in latency
        ],
    )
    record("serve_throughput", lines)
    return record_json(
        "serve_throughput",
        _bench_document(
            bench="serve_throughput",
            workload="mlp-mix",
            backend="vectorized",
            wall_time_s=served_s,
            counters={
                path: value
                for path, value in counters.items()
                if "tenant[" not in path
            },
            extra={
                "jobs": JOBS,
                "jobs_per_s": JOBS / served_s,
                "naive_wall_time_s": naive_s,
                "speedup_vs_naive": speedup,
                "metrics": metrics,
                "latency": latency,
            },
        ),
    )
