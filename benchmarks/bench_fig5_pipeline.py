"""Fig. 5 — inter-layer pipeline: formulas vs executed schedule.

The paper derives ``(2L+1)N + N/B`` cycles without the pipeline and
``(N/B)(2L+B+1)`` with it.  The benchmark sweeps batch size for an
AlexNet-depth network (L = 8), checks the closed forms against the
event-driven schedule simulator, and records the speedup series
(the crossover structure: speedup ~1 at B = 1, approaching 2L + 1
for large B).
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core.pipeline import (
    asymptotic_training_speedup,
    training_cycles_pipelined,
    training_cycles_sequential,
)
from repro.core.schedule import simulate_training_pipeline
from repro.telemetry import bench_document as _bench_document

LAYERS = 8          # AlexNet's weighted-layer depth
BATCHES = [1, 2, 4, 8, 16, 32, 64, 128]
N_PER_BATCH = 4     # inputs = 4 batches per configuration


def sweep():
    rows = []
    for batch in BATCHES:
        n_inputs = batch * N_PER_BATCH
        sequential = training_cycles_sequential(LAYERS, n_inputs, batch)
        pipelined = training_cycles_pipelined(LAYERS, n_inputs, batch)
        simulated = simulate_training_pipeline(
            LAYERS, n_inputs, batch
        ).makespan
        rows.append(
            (
                batch,
                sequential,
                pipelined,
                simulated,
                sequential / pipelined,
            )
        )
    return rows


@register(suite="quick")
def bench_fig5_pipeline():
    start = time.perf_counter()
    rows = sweep()
    wall_time_s = time.perf_counter() - start
    lines = format_table(
        ("B", "seq_cycles", "pipe_cycles", "sim_cycles", "speedup"), rows
    )
    lines.append(
        f"asymptote (B->inf): {2 * LAYERS + 1}x; "
        f"at B=128: {asymptotic_training_speedup(LAYERS, 128):.2f}x"
    )
    record("fig5_pipeline", lines)
    by_batch = {row[0]: row for row in rows}
    documents = record_json(
        "fig5_pipeline",
        _bench_document(
            bench="fig5_pipeline",
            workload="fig5",
            backend="analytic",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "speedup_b1": by_batch[1][4],
                    "speedup_b128": by_batch[128][4],
                    "sequential_cycles_b128": by_batch[128][1],
                    "pipelined_cycles_b128": by_batch[128][2],
                    "asymptote": 2 * LAYERS + 1,
                }
            },
        ),
    )

    for batch, sequential, pipelined, simulated, speedup in rows:
        assert pipelined == simulated          # formula == execution
        assert pipelined <= sequential
    speedups = [row[4] for row in rows]
    assert speedups == sorted(speedups)        # monotone in B
    assert speedups[0] < 1.5                   # B=1: pipeline useless
    assert speedups[-1] > 0.75 * (2 * LAYERS + 1)  # near the 2L+1 limit

    return documents
