"""Telemetry overhead guard: live collector vs ``NULL_COLLECTOR``.

The observability stack (counters, spans, latency histograms) must be
free to leave enabled: a live :class:`~repro.telemetry.Collector`
may cost bookkeeping time, but it must never perturb a simulation —
the crossbar outputs of an instrumented run are required to be
bit-identical to an uninstrumented one (asserted here; that is the
telemetry contract, not a tolerance).

The gated metrics are the deterministic halves of that contract:
``digests_identical`` (1.0 or the bench fails first) and the exact
histogram observation count of the instrumented run.  The measured
overhead ratio is wall clock, so it stays in the document's extras —
recorded for trend-watching, never baseline-banded.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.telemetry import NULL_COLLECTOR, Collector, TelemetryLike
from repro.telemetry import bench_document as _bench_document
from repro.xbar.device import PIPELAYER_DEVICE
from repro.xbar.engine import (
    CrossbarEngine,
    CrossbarEngineConfig,
    weights_hash,
)

ROWS = COLS = 128
BATCH = 16
REPS = 8
SEED = 7


def _run(collector: TelemetryLike):
    """(Output digest, seconds per matmul) for one collector choice."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(ROWS, COLS))
    activations = rng.normal(size=(BATCH, ROWS))
    config = CrossbarEngineConfig(
        fast_ideal=False,
        backend="vectorized",
        device=PIPELAYER_DEVICE,
    )
    engine = CrossbarEngine(config, rng=SEED, collector=collector)
    with collector.timed("prepare_seconds"):
        engine.prepare(weights)
    engine.matmul(activations)  # warm the per-prepare caches
    outputs = None
    start = time.perf_counter()
    for _ in range(REPS):
        with collector.timed("matmul_seconds"):
            outputs = engine.matmul(activations)
    seconds = (time.perf_counter() - start) / REPS
    return weights_hash(outputs), seconds


@register(suite="quick")
def bench_telemetry_overhead():
    live = Collector()
    live_digest, live_s = _run(live)
    null_digest, null_s = _run(NULL_COLLECTOR)

    # The contract: instrumentation observes, it never perturbs.
    assert live_digest == null_digest

    overhead = live_s / null_s if null_s else 1.0
    matmul_observations = live.histograms()["matmul_seconds"]["count"]
    metrics = {
        "digests_identical": 1.0,
        "matmul_observations": float(matmul_observations),
    }
    rows = [
        ("NULL_COLLECTOR", null_s * 1e3, "-"),
        ("live collector", live_s * 1e3, f"{overhead:.2f}x"),
    ]
    lines = [
        f"Telemetry overhead, {ROWS}x{COLS} vectorized full-datapath "
        f"matmul, batch {BATCH}, {REPS} reps:",
        "",
    ]
    lines += format_table(["collector", "ms/matmul", "overhead"], rows)
    lines += [
        "",
        "outputs bit-identical with telemetry enabled "
        f"(digest {live_digest[:12]}...)",
    ]
    record("telemetry_overhead", lines)
    return record_json(
        "telemetry_overhead",
        _bench_document(
            bench="telemetry_overhead",
            workload="matmul-128",
            backend="vectorized",
            wall_time_s=live_s * REPS + null_s * REPS,
            counters={
                path: value
                for path, value in live.counters().items()
                if "tile[" not in path
            },
            extra={
                "metrics": metrics,
                "overhead_ratio": overhead,
                "null_collector_s_per_matmul": null_s,
                "live_collector_s_per_matmul": live_s,
            },
        ),
    )
