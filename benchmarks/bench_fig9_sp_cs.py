"""Fig. 9 — spatial parallelism and computation sharing.

ReGAN's two pipeline optimizations: SP duplicates D so training phases
(1) and (2) run concurrently; CS co-trains D and G by sharing the
forward path T0-T6 (doubling intermediate storage), with D updated at
T11 and G at T14.  The benchmark compares full-iteration cycle counts
across all five schemes for the four ReGAN datasets, checks each
closed form against the executed schedule, and records the cycles,
speedup, and hardware price of each scheme.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core.gan_pipeline import SCHEME_COSTS, SCHEMES, iteration_cycles
from repro.core.schedule import verify_scheme
from repro.telemetry import bench_document as _bench_document
from repro.workloads import regan_suite

BATCH = 32


def sweep():
    rows = []
    for dataset, (generator, discriminator) in regan_suite().items():
        l_g, l_d = generator.depth, discriminator.depth
        base = iteration_cycles(l_d, l_g, BATCH, "unpipelined")
        for scheme in SCHEMES:
            cycles = iteration_cycles(l_d, l_g, BATCH, scheme)
            cost = SCHEME_COSTS[scheme]
            rows.append(
                (
                    dataset,
                    scheme,
                    cycles,
                    base / cycles,
                    cost.d_copies,
                    cost.intermediate_storage_factor,
                )
            )
    return rows


@register(suite="quick")
def bench_fig9_sp_cs():
    start = time.perf_counter()
    rows = sweep()
    wall_time_s = time.perf_counter() - start
    lines = format_table(
        ("dataset", "scheme", "cycles", "speedup", "D_copies", "storage_x"),
        rows,
    )
    record("fig9_sp_cs", lines)
    by_key = {(row[0], row[1]): row for row in rows}
    documents = record_json(
        "fig9_sp_cs",
        _bench_document(
            bench="fig9_sp_cs",
            workload="fig9",
            backend="analytic",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    f"celeba_{scheme}_cycles": by_key[("celeba", scheme)][2]
                    for scheme in SCHEMES
                }
            },
        ),
    )

    # Formula == execution, for every row the bench prices.
    for dataset, (generator, discriminator) in regan_suite().items():
        for scheme in SCHEMES:
            check = verify_scheme(
                discriminator.depth, generator.depth, BATCH, scheme
            )
            assert check["match"], (dataset, check)
            assert check["simulated"] == by_key[(dataset, scheme)][2]
    for dataset in ("mnist", "cifar10", "celeba", "lsun"):
        cycles = {
            scheme: by_key[(dataset, scheme)][2] for scheme in SCHEMES
        }
        # Each optimization strictly helps at B=32.
        assert cycles["pipelined"] < cycles["unpipelined"]
        assert cycles["sp"] < cycles["pipelined"]
        assert cycles["cs"] < cycles["pipelined"]
        assert cycles["sp_cs"] <= cycles["sp"]
        assert cycles["sp_cs"] <= cycles["cs"]
        # The hardware price is visible: SP needs 2x D, CS 2x storage.
        assert by_key[(dataset, "sp")][4] == 2
        assert by_key[(dataset, "cs")][5] == 2.0

    return documents
