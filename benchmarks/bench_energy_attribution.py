"""Table I energy savings reproduced from live telemetry counters.

The analytic estimator prices closed-form operation counts; this
benchmark derives the same Table I energy-saving ratios from *event
counters* — array reads, DAC line fires, ADC samples, cell writes,
buffer bits, static occupancy — priced through
:func:`repro.arch.components.event_costs`, with the analytic path as
the consistency oracle (``measured_table1`` raises if the two
disagree beyond :data:`MEASURED_CONSISTENCY_RTOL`).

It also attributes a live crossbar-engine inference run and asserts
the engine's event counters — and therefore the attributed joules —
are bit-identical between the loop and vectorized backends, and that
the attributed MVM-path energy equals ``array_reads x
array_subcycle_energy`` exactly.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.arch.components import array_subcycle_energy, event_costs
from repro.arch.params import DEFAULT_TECH
from repro.bench import register
from repro.core.estimator import (
    PAPER_PIPELAYER_ENERGY,
    PAPER_REGAN_ENERGY,
    measured_table1,
)
from repro.telemetry import Collector, attribute_energy
from repro.telemetry import bench_document as _bench_document


def _engine_counters(backend):
    """Event counters of one full-path mlp inference run."""
    from repro.api import InferenceJob, Simulator
    from repro.xbar.engine import CrossbarEngineConfig

    collector = Collector(record_spans=False)
    simulator = Simulator.from_workload(
        "mlp",
        engine_config=CrossbarEngineConfig(
            backend=backend, fast_ideal=False
        ),
        seed=0,
        collector=collector,
    )
    simulator.run(InferenceJob(workload="mlp", seed=0, count=8))
    return collector.counters()


def compute():
    measured = measured_table1(batch=32)
    return measured, _engine_counters("loop"), _engine_counters("vectorized")


@register(suite="quick")
def bench_energy_attribution():
    start = time.perf_counter()
    measured, loop_counters, vectorized_counters = compute()
    wall_time_s = time.perf_counter() - start

    # The engine's event stream is part of the backend bit-identity
    # contract, so the attributed joules cannot depend on the backend.
    backends_identical = loop_counters == vectorized_counters
    costs = event_costs(DEFAULT_TECH)
    engine_report = attribute_energy(
        loop_counters, costs, source_name="mlp inference (loop)"
    )
    engine_totals = engine_report["totals"]

    pipelayer = measured["rows"]["PipeLayer"]
    regan = measured["rows"]["ReGAN"]
    rows = [
        (
            "PipeLayer",
            pipelayer["energy_saving_geomean"],
            pipelayer["analytic_energy_saving_geomean"],
            float(PAPER_PIPELAYER_ENERGY),
        ),
        (
            "ReGAN",
            regan["energy_saving_geomean"],
            regan["analytic_energy_saving_geomean"],
            float(PAPER_REGAN_ENERGY),
        ),
    ]
    lines = format_table(
        ("row", "measured_x", "analytic_x", "paper_x"), rows
    )
    lines.append("")
    lines.append(
        f"worst counter-vs-analytic consistency: "
        f"{measured['worst_consistency']:.3e} "
        f"(gate {measured['consistency_rtol']:g})"
    )
    record("energy_attribution", lines)
    documents = record_json(
        "energy_attribution",
        [
            _bench_document(
                bench="energy_attribution",
                workload="table1",
                backend="measured",
                wall_time_s=wall_time_s,
                counters={},
                extra={
                    "metrics": {
                        "pipelayer_energy_saving_geomean": pipelayer[
                            "energy_saving_geomean"
                        ],
                        "regan_energy_saving_geomean": regan[
                            "energy_saving_geomean"
                        ],
                        "pipelayer_ratio_to_analytic": (
                            pipelayer["energy_saving_geomean"]
                            / pipelayer["analytic_energy_saving_geomean"]
                        ),
                        "regan_ratio_to_analytic": (
                            regan["energy_saving_geomean"]
                            / regan["analytic_energy_saving_geomean"]
                        ),
                        "consistency_within_gate": 1.0,
                    }
                },
            ),
            _bench_document(
                bench="energy_attribution",
                workload="mlp",
                backend="engine",
                wall_time_s=wall_time_s,
                counters={},
                extra={
                    "metrics": {
                        "backends_identical": float(backends_identical),
                        "total_joules": engine_totals["total_joules"],
                        "average_watts": engine_totals["average_watts"],
                    }
                },
            ),
        ],
    )

    # measured_table1 already gated counter-vs-analytic consistency;
    # these pin the Table I regime (same loose bands as the analytic
    # Table I benches — the model does not hit the paper's exact
    # averages, and says so in EXPERIMENTS.md).
    assert backends_identical
    assert (
        0.25
        < pipelayer["energy_saving_geomean"] / PAPER_PIPELAYER_ENERGY
        < 4
    )
    assert regan["energy_saving_geomean"] > 5
    assert (
        regan["energy_saving_geomean"]
        > pipelayer["energy_saving_geomean"]
    )

    # Attribution exactness on the live engine: the MVM-path energy
    # (array + ADC + driver) of the counters equals reads priced at
    # the closed-form per-subcycle energy.
    from repro.xbar.engine import CrossbarEngineConfig

    reads = sum(
        value
        for path, value in loop_counters.items()
        if path.endswith("/array_reads")
    )
    assert reads > 0
    components = engine_totals["components"]
    mvm_joules = (
        components["array"] + components["adc"] + components["driver"]
    )
    geometry = CrossbarEngineConfig()
    expected = reads * array_subcycle_energy(
        DEFAULT_TECH, geometry.array_rows, geometry.array_cols
    )
    assert abs(mvm_joules - expected) <= 1e-9 * expected
    assert engine_totals["simulated_seconds"] > 0
    assert engine_totals["average_watts"] > 0

    return documents
