"""A5 — robustness of Table I to the substituted technology constants.

DESIGN.md replaces the papers' circuit numbers with literature-derived
tables; this benchmark sweeps every energy/timing constant by 0.5x/2x
and records the swing of the Table I metrics, then checks that the
paper's qualitative conclusions hold at *every* corner:

1. both accelerators beat the GPU by >10x on time;
2. the energy saving is positive but smaller than the speedup;
3. ReGAN's benefit exceeds PipeLayer's.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.arch.sensitivity import conclusion_robustness, tech_sensitivity
from repro.bench import register
from repro.core.estimator import pipelayer_table1, regan_table1
from repro.telemetry import bench_document as _bench_document


def sweep():
    return {
        metric: tech_sensitivity(metric) for metric in ("speedup", "energy")
    }


@register(suite="quick")
def bench_sensitivity():
    start = time.perf_counter()
    sweeps = sweep()
    wall_time_s = time.perf_counter() - start

    lines = []
    for metric_name, rows in sweeps.items():
        lines.append(f"[PipeLayer {metric_name}: tornado, 0.5x..2x]")
        lines += format_table(
            ("parameter", "at 0.5x", "nominal", "at 2x", "swing"),
            [
                (
                    row.field,
                    row.metric_low,
                    row.metric_nominal,
                    row.metric_high,
                    row.swing,
                )
                for row in rows
            ],
        )
        lines.append("")

    held = conclusion_robustness(
        metrics={
            "pl_speedup": lambda tech: pipelayer_table1(tech=tech).speedup,
            "pl_energy": lambda tech: pipelayer_table1(
                tech=tech
            ).energy_saving,
            "rg_speedup": lambda tech: regan_table1(tech=tech).speedup,
            "rg_energy": lambda tech: regan_table1(tech=tech).energy_saving,
        },
        predicates={
            "accelerators_win_big": lambda v: v["pl_speedup"] > 10
            and v["rg_speedup"] > 10,
            "energy_saving_below_speedup": lambda v: 1
            < v["pl_energy"]
            < v["pl_speedup"],
            "regan_faster_than_pipelayer": lambda v: v["rg_speedup"]
            > v["pl_speedup"],
            # Recorded but NOT asserted: the ReGAN-vs-PipeLayer *energy*
            # ordering (13.0x vs 11.3x nominal) is within model noise in
            # this reproduction and flips when write/static costs double
            # — an honest limitation already noted in EXPERIMENTS.md
            # (the paper's 94x-vs-7.17x gap is far wider than ours).
            "regan_greener_than_pipelayer": lambda v: v["rg_energy"]
            > v["pl_energy"],
        },
    )
    lines.append("[conclusion robustness at every corner]")
    for name, ok in held.items():
        lines.append(f"  {name}: {'HELD' if ok else 'VIOLATED'}")
    record("sensitivity", lines)
    speedup_rows = {row.field: row for row in sweeps["speedup"]}
    documents = record_json(
        "sensitivity",
        _bench_document(
            bench="sensitivity",
            workload="table1",
            backend="model",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "speedup_nominal": speedup_rows[
                        "subcycle_time"
                    ].metric_nominal,
                    "subcycle_time_swing": speedup_rows[
                        "subcycle_time"
                    ].swing,
                    "conclusions_held": sum(
                        1 for ok in held.values() if ok
                    ),
                }
            },
        ),
    )

    # Structural expectations of the model itself.
    # Speedup depends only on timing, not on any energy constant.
    assert speedup_rows["subcycle_time"].swing > 0.5
    for field in (
        "adc_energy_per_conversion",
        "cell_write_energy",
        "array_static_power",
    ):
        assert speedup_rows[field].swing == 0.0
    # Energy saving falls as the ADC/write/static costs rise.
    energy_rows = {row.field: row for row in sweeps["energy"]}
    assert energy_rows["adc_energy_per_conversion"].direction == "decreasing"
    assert energy_rows["array_static_power"].direction == "decreasing"
    # The robust conclusions survive every corner; the marginal energy
    # ordering is recorded above but not asserted.
    assert held["accelerators_win_big"]
    assert held["energy_saving_below_speedup"]
    assert held["regan_faster_than_pipelayer"]

    return documents
