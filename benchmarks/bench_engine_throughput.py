"""Crossbar engine throughput: loop oracle vs vectorized backend.

The vectorized backend's whole reason to exist is making full-datapath
simulation (``fast_ideal=False``) usable at training scale while
staying bit-identical to the loop oracle.  This benchmark measures
MVM-batches/s for both backends on the acceptance workload — a 256x256
layer, batch 32, 8-bit weighted-spike drive — plus a noisy-device
variant where the per-sub-cycle ADC/noise physics cannot be collapsed
and both backends pay the same arithmetic.

Acceptance: vectorized >= 10x loop on the ideal-device workload, on
the fastest of interleaved calls (min of N in one process).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.telemetry import Collector
from repro.telemetry import bench_document as _bench_document
from repro.xbar.device import PIPELAYER_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

ROWS = COLS = 256
BATCH = 32
SEED = 1

NOISY = replace(PIPELAYER_DEVICE, program_noise=0.05, read_noise=0.02)


def _engine(backend: str, device):
    """A prepared, warmed engine, its collector, and the activations."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(ROWS, COLS))
    activations = rng.normal(size=(BATCH, ROWS))
    config = CrossbarEngineConfig(
        fast_ideal=False, backend=backend, device=device
    )
    collector = Collector(record_spans=False)
    engine = CrossbarEngine(config, rng=SEED, collector=collector)
    engine.prepare(weights)
    engine.matmul(activations)  # warm the per-prepare caches
    return engine, collector, activations


def _time_backends(device, reps):
    """Per-backend (min seconds per MVM-batch, telemetry counters).

    The backends' calls alternate in one process, each spread evenly
    over the run, and each backend keeps its fastest call: a burst of
    load from another process slows a few calls of both backends
    instead of one backend's whole run.  ``reps`` fixes each backend's
    call count, which keeps the counters exact across reruns.
    """
    runs = {backend: _engine(backend, device) for backend in reps}
    best = dict.fromkeys(reps, float("inf"))
    schedule = sorted(
        (index / count, backend)
        for backend, count in reps.items()
        for index in range(count)
    )
    for _, backend in schedule:
        engine, _, activations = runs[backend]
        start = time.perf_counter()
        engine.matmul(activations)
        best[backend] = min(best[backend], time.perf_counter() - start)
    return {
        backend: (
            best[backend],
            {
                path: value
                for path, value in collector.counters().items()
                if "tile[" not in path
            },
        )
        for backend, (_, collector, _) in runs.items()
    }


@register(suite="quick")
def bench_engine_throughput():
    rows = []
    speedups = {}
    documents = []
    for label, device, loop_reps, vec_reps in (
        ("ideal", PIPELAYER_DEVICE, 3, 20),
        ("noisy", NOISY, 2, 3),
    ):
        timed = _time_backends(
            device, {"loop": loop_reps, "vectorized": vec_reps}
        )
        loop_s, loop_counters = timed["loop"]
        vec_s, vec_counters = timed["vectorized"]
        speedups[label] = loop_s / vec_s
        for backend, seconds, counters in (
            ("loop", loop_s, loop_counters),
            ("vectorized", vec_s, vec_counters),
        ):
            rows.append(
                (
                    label,
                    backend,
                    seconds * 1e3,
                    1.0 / seconds,
                    BATCH / seconds,
                )
            )
            # Deterministic per-run totals (reps are fixed per backend,
            # so these are exact across same-platform reruns); wall
            # time and MVMs/s stay outside `metrics` so the baseline
            # gate never bands a wall-clock number.
            # Exact-leaf match: the energy event counters
            # (static.array_subcycles, ...) share the suffix but are
            # separate series priced by the attribution layer.
            metrics = {
                short: float(
                    sum(
                        value
                        for path, value in counters.items()
                        if path == short or path.endswith("/" + short)
                    )
                )
                for short in ("mvm_calls", "macs", "subcycles",
                              "adc_conversions")
            }
            documents.append(
                _bench_document(
                    bench="engine_throughput",
                    workload=f"{ROWS}x{COLS}-{label}",
                    backend=backend,
                    wall_time_s=seconds,
                    counters=counters,
                    extra={
                        "batch": BATCH,
                        "mvms_per_s": BATCH / seconds,
                        "metrics": metrics,
                    },
                )
            )
    lines = [
        f"Crossbar engine throughput, {ROWS}x{COLS} layer, batch {BATCH}, "
        "8-bit spike drive, fast_ideal=False (fastest of interleaved calls):",
        "",
    ]
    lines += format_table(
        ["device", "backend", "ms/call", "MVM-batches/s", "MVMs/s"], rows
    )
    lines += [
        "",
        f"ideal-device speedup: {speedups['ideal']:.1f}x "
        "(transparent-ADC collapse; bit-identical to the loop oracle)",
        f"noisy-device speedup: {speedups['noisy']:.1f}x "
        "(per-sub-cycle noise + ADC physics cannot be collapsed)",
    ]
    record("engine_throughput", lines)
    record_json("engine_throughput", documents)
    # The acceptance bar for the vectorized backend.
    assert speedups["ideal"] >= 10.0, speedups
