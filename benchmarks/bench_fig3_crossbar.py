"""Fig. 3 — crossbar MVM correctness and multi-array partitioning.

Fig. 3(a,b) maps a matrix-vector multiplication onto one array;
Fig. 3(c) partitions a large matrix over multiple arrays whose partial
sums are "collected horizontally and summed vertically".  The benchmark
measures the simulated-pipeline throughput and records the fidelity
(relative error vs exact float matmul) across matrix sizes spanning the
single-array and multi-array regimes.
"""

import time

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.telemetry import bench_document as _bench_document
from repro.xbar import CrossbarEngine, CrossbarEngineConfig

SIZES = [(64, 64), (128, 128), (512, 256), (1152, 256)]  # last = Fig. 4


@register(suite="quick")
def bench_fig3_crossbar():
    rng = np.random.default_rng(0)
    rows = []
    engines = {}
    for (k, n) in SIZES:
        weights = rng.normal(size=(k, n))
        engine = CrossbarEngine(CrossbarEngineConfig(), rng=1)
        engine.prepare(weights)
        activations = rng.normal(size=(8, k))
        out = engine.matmul(activations)
        exact = activations @ weights
        rel = float(
            np.max(np.abs(out - exact)) / np.max(np.abs(exact))
        )
        arrays = engine.array_count
        rows.append((f"{k}x{n}", arrays, rel))
        engines[(k, n)] = (engine, activations)

    # Benchmark the Fig. 4-sized tiled MVM (the paper's worked shape).
    engine, activations = engines[(1152, 256)]
    start = time.perf_counter()
    engine.matmul(activations)
    wall_time_s = time.perf_counter() - start

    lines = format_table(("matrix", "arrays", "max_rel_err"), rows)
    record("fig3_crossbar", lines)
    documents = record_json(
        "fig3_crossbar",
        _bench_document(
            bench="fig3_crossbar",
            workload="fig3",
            backend="sim",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    f"max_rel_err_{matrix}": rel
                    for matrix, _, rel in rows
                }
                | {"arrays_1152x256": rows[-1][1]},
            },
        ),
    )

    # Fidelity: every size is within 16-bit/8-bit quantization error.
    assert all(rel < 0.01 for _, _, rel in rows)
    # Partitioning: the Fig. 4 matrix uses the 9x2 grid per slice plane
    # (x 4 slices x 2 signs = 144 arrays).
    assert rows[-1][1] == 144

    return documents
