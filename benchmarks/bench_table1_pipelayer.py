"""Table I, row 1 — PipeLayer speedup and energy saving vs GTX 1080.

Paper: "on average, PipeLayer achieves 42.45x speedup and 7.17x energy
saving" over the GPU platform on MNIST and ImageNet workloads.

This benchmark runs the PipeLayer model over the three-network suite
(MNIST CNN, AlexNet, VGG-16) at batch 32 and reports the per-workload
and geometric-mean speedup/energy-saving, recording the table to
``benchmarks/results/table1_pipelayer.txt``.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core import pipelayer_table1
from repro.core.estimator import (
    PAPER_PIPELAYER_ENERGY,
    PAPER_PIPELAYER_SPEEDUP,
)
from repro.telemetry import bench_document as _bench_document


def compute_row():
    return pipelayer_table1(batch=32)


@register(suite="quick")
def bench_table1_pipelayer():
    start = time.perf_counter()
    row = compute_row()
    wall_time_s = time.perf_counter() - start
    rows = [
        (name, speedup, energy)
        for name, speedup, energy in row.per_workload
    ]
    rows.append(("GEOMEAN", row.speedup, row.energy_saving))
    rows.append(("paper", PAPER_PIPELAYER_SPEEDUP, PAPER_PIPELAYER_ENERGY))
    lines = format_table(
        ("workload", "speedup_x", "energy_saving_x"), rows
    )
    record("table1_pipelayer", lines)
    documents = record_json(
        "table1_pipelayer",
        _bench_document(
            bench="table1_pipelayer",
            workload="table1",
            backend="pipelayer",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "speedup_geomean": row.speedup,
                    "energy_saving_geomean": row.energy_saving,
                }
            },
        ),
    )

    # Shape assertions: PipeLayer wins big on time, modestly on energy.
    assert row.speedup > 10
    assert 1 < row.energy_saving < row.speedup
    # Within ~4x of the printed averages.
    assert 0.25 < row.speedup / PAPER_PIPELAYER_SPEEDUP < 4
    assert 0.25 < row.energy_saving / PAPER_PIPELAYER_ENERGY < 4

    return documents
