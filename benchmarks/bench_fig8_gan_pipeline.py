"""Fig. 8 — the GAN training pipeline: pipelined vs unpipelined cycles.

Per the paper: updating D takes ``(2L_D + B) + (L_G + 2L_D + B) + 1``
pipelined cycles vs ``(4L_D + L_G + 2)B`` unpipelined; updating G takes
``2L_G + 2L_D + B + 1`` vs ``(2L_G + 2L_D + 1)B``.  The benchmark
sweeps batch size for the CelebA-sized DCGAN (L_D = L_G = 5) and
records the cycle counts and speedups.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.telemetry import bench_document as _bench_document
from repro.core.gan_pipeline import (
    d_training_cycles_pipelined,
    d_training_cycles_unpipelined,
    g_training_cycles_pipelined,
    g_training_cycles_unpipelined,
)

L_D = L_G = 5  # 64x64 DCGAN depth (CelebA / LSUN)
BATCHES = [1, 4, 16, 32, 64, 128]


def sweep():
    rows = []
    for batch in BATCHES:
        d_pipe = d_training_cycles_pipelined(L_D, L_G, batch)
        d_seq = d_training_cycles_unpipelined(L_D, L_G, batch)
        g_pipe = g_training_cycles_pipelined(L_D, L_G, batch)
        g_seq = g_training_cycles_unpipelined(L_D, L_G, batch)
        rows.append(
            (batch, d_seq, d_pipe, d_seq / d_pipe, g_seq, g_pipe,
             g_seq / g_pipe)
        )
    return rows


@register(suite="quick")
def bench_fig8_gan_pipeline():
    start = time.perf_counter()
    rows = sweep()
    wall_time_s = time.perf_counter() - start
    lines = format_table(
        ("B", "D_seq", "D_pipe", "D_speedup", "G_seq", "G_pipe",
         "G_speedup"),
        rows,
    )
    record("fig8_gan_pipeline", lines)
    by_batch = {row[0]: row for row in rows}
    documents = record_json(
        "fig8_gan_pipeline",
        _bench_document(
            bench="fig8_gan_pipeline",
            workload="fig8",
            backend="analytic",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "d_pipelined_cycles_b32": by_batch[32][2],
                    "g_pipelined_cycles_b32": by_batch[32][5],
                    "d_speedup_b128": by_batch[128][3],
                    "g_speedup_b128": by_batch[128][6],
                }
            },
        ),
    )

    for batch, d_seq, d_pipe, d_speedup, g_seq, g_pipe, g_speedup in rows:
        # Exact paper formulas.
        assert d_pipe == (2 * L_D + batch) + (L_G + 2 * L_D + batch) + 1
        assert g_pipe == 2 * L_G + 2 * L_D + batch + 1
        assert d_seq == (4 * L_D + L_G + 2) * batch + 1
        assert g_seq == (2 * L_G + 2 * L_D + 1) * batch + 1
        assert d_pipe <= d_seq and g_pipe <= g_seq
    # Speedups grow with batch and approach the sweep-depth limits.
    d_speedups = [row[3] for row in rows]
    g_speedups = [row[6] for row in rows]
    assert d_speedups == sorted(d_speedups)
    assert g_speedups == sorted(g_speedups)
    assert g_speedups[-1] > 0.7 * (2 * L_G + 2 * L_D + 1)

    return documents
