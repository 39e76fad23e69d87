"""Fig. 4 — naive vs balanced data mapping, duplication sweep.

The paper's worked example: a 114x114x128 -> 112x112x256 convolution
with 3x3 kernels lowers to a 1152x256 matrix; the naive scheme takes
12544 cycles per image, the balanced scheme with X duplicated copies
takes ceil(12544 / X) passes at an array cost proportional to X
("a good trade-off ... requires a carefully chosen X"; the figure uses
X = 256).  The benchmark sweeps X over the paper's range and records
the passes-vs-arrays trade-off curve.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core.mapping import balanced_mapping, naive_mapping
from repro.telemetry import bench_document as _bench_document
from repro.workloads import FIG4_EXAMPLE

X_SWEEP = [1, 4, 16, 64, 256, 1024, 4096, 12544]


def sweep():
    rows = []
    for duplication in X_SWEEP:
        mapping = balanced_mapping(FIG4_EXAMPLE, duplication)
        rows.append(
            (
                duplication,
                mapping.passes_per_image,
                mapping.total_arrays,
                mapping.cells / 1e6,
            )
        )
    return rows


@register(suite="quick")
def bench_fig4_mapping():
    start = time.perf_counter()
    rows = sweep()
    wall_time_s = time.perf_counter() - start
    lines = format_table(
        ("X", "passes/img", "arrays", "Mcells"), rows
    )
    record("fig4_mapping", lines)
    by_x = {row[0]: row for row in rows}
    documents = record_json(
        "fig4_mapping",
        _bench_document(
            bench="fig4_mapping",
            workload="fig4",
            backend="analytic",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "naive_passes": naive_mapping(
                        FIG4_EXAMPLE
                    ).passes_per_image,
                    "passes_x256": by_x[256][1],
                    "arrays_x256": by_x[256][2],
                    "passes_x12544": by_x[12544][1],
                }
            },
        ),
    )

    by_x = {row[0]: row for row in rows}
    # The paper's anchor points.
    naive = naive_mapping(FIG4_EXAMPLE)
    assert naive.passes_per_image == 12544
    assert by_x[1][1] == 12544          # X=1 == naive
    assert by_x[256][1] == 49           # the figure's example
    assert by_x[12544][1] == 1          # one-cycle, excessive hardware
    # Monotone trade-off: passes fall, arrays rise.
    passes = [row[1] for row in rows]
    arrays = [row[2] for row in rows]
    assert passes == sorted(passes, reverse=True)
    assert arrays == sorted(arrays)
    # Work conservation: passes x X covers all vectors exactly once
    # (within the last partial wave).
    for duplication, passes_per_image, _, _ in rows:
        assert (passes_per_image - 1) * duplication < 12544
        assert passes_per_image * duplication >= 12544

    return documents
