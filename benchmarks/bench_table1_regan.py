"""Table I, row 2 — ReGAN speedup and energy saving vs GTX 1080.

Paper: "Due to the high complexity of GAN system, ReGAN obtains even
higher benefit — 240x improvement in performance and 94x energy
reduction" over DCGAN training on MNIST / CIFAR-10 / CelebA / LSUN.

The benchmark runs the ReGAN model (scheme SP+CS, the full design)
over the four-dataset DCGAN suite at batch 32.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core import pipelayer_table1, regan_table1
from repro.core.estimator import PAPER_REGAN_ENERGY, PAPER_REGAN_SPEEDUP
from repro.telemetry import bench_document as _bench_document


def compute_row():
    return regan_table1(batch=32, scheme="sp_cs")


@register(suite="quick")
def bench_table1_regan():
    start = time.perf_counter()
    row = compute_row()
    wall_time_s = time.perf_counter() - start
    rows = [
        (name, speedup, energy)
        for name, speedup, energy in row.per_workload
    ]
    rows.append(("GEOMEAN", row.speedup, row.energy_saving))
    rows.append(("paper", PAPER_REGAN_SPEEDUP, PAPER_REGAN_ENERGY))
    lines = format_table(("dataset", "speedup_x", "energy_saving_x"), rows)
    record("table1_regan", lines)
    documents = record_json(
        "table1_regan",
        _bench_document(
            bench="table1_regan",
            workload="table1",
            backend="regan",
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

    # Shape assertions: ReGAN's benefit exceeds PipeLayer's (Table I
    # ordering) and the speedup lands in the paper's regime.
    pipelayer = pipelayer_table1(batch=32)
    assert row.speedup > pipelayer.speedup
    assert row.energy_saving > pipelayer.energy_saving
    assert 0.25 < row.speedup / PAPER_REGAN_SPEEDUP < 4
    assert row.energy_saving > 5

    return documents
