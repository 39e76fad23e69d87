"""Table I estimator: aggregate speedup / energy saving vs the GPU.

"Compared to the GPU platform, on average, PipeLayer achieves 42.45x
speedup and 7.17x energy saving ... ReGAN obtains even higher benefit —
240x improvement in performance and 94x energy reduction"
(Sec. III-C).  The functions here run the accelerator models over the
paper's workload suites and aggregate with the geometric mean, giving
the two rows of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.core.pipelayer import PipeLayerModel, PipeLayerReport
from repro.core.regan import ReGANModel, ReGANReport
from repro.arch.params import DEFAULT_TECH, XbarTechParams
from repro.utils.validation import check_positive
from repro.workloads.suite import pipelayer_suite, regan_suite

#: Table I, as printed in the paper.
PAPER_PIPELAYER_SPEEDUP = 42.45
PAPER_PIPELAYER_ENERGY = 7.17
PAPER_REGAN_SPEEDUP = 240.0
PAPER_REGAN_ENERGY = 94.0

#: Default deployment sizes (physical 128x128 arrays).  PipeLayer is a
#: per-bank design; ReGAN deploys across the whole ReRAM main memory,
#: hence the larger budget.
PIPELAYER_ARRAY_BUDGET = 262144
REGAN_ARRAY_BUDGET = 1048576


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("geometric mean of an empty sequence")
    if np.any(array <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))


@dataclass(frozen=True)
class TableOneRow:
    """One accelerator row of Table I (measured by this reproduction)."""

    accelerator: str
    speedup: float
    energy_saving: float
    paper_speedup: float
    paper_energy_saving: float
    per_workload: tuple

    def to_dict(self) -> Dict[str, Any]:
        """The row as plain JSON data (one ``table1_report`` entry)."""
        return {
            "accelerator": self.accelerator,
            "speedup": self.speedup,
            "energy_saving": self.energy_saving,
            "paper_speedup": self.paper_speedup,
            "paper_energy_saving": self.paper_energy_saving,
            "per_workload": [
                {"network": name, "speedup": speedup, "energy_saving": energy}
                for name, speedup, energy in self.per_workload
            ],
        }

    def summary(self) -> str:
        lines = [
            f"{self.accelerator}: speedup {self.speedup:.2f}x "
            f"(paper {self.paper_speedup}x), energy saving "
            f"{self.energy_saving:.2f}x (paper {self.paper_energy_saving}x)"
        ]
        for name, speedup, energy in self.per_workload:
            lines.append(
                f"  {name:<16s} speedup {speedup:8.1f}x   "
                f"energy saving {energy:6.1f}x"
            )
        return "\n".join(lines)


def pipelayer_table1(
    array_budget: int = PIPELAYER_ARRAY_BUDGET,
    batch: int = 32,
    tech: XbarTechParams = DEFAULT_TECH,
    training: bool = True,
) -> TableOneRow:
    """Table I row 1: PipeLayer over the MNIST/ImageNet suite."""
    check_positive("batch", batch)
    reports: List[PipeLayerReport] = []
    for spec in pipelayer_suite():
        model = PipeLayerModel(spec, array_budget=array_budget, tech=tech)
        reports.append(model.report(batch=batch, training=training))
    return TableOneRow(
        accelerator="PipeLayer",
        speedup=geometric_mean([r.speedup for r in reports]),
        energy_saving=geometric_mean([r.energy_saving for r in reports]),
        paper_speedup=PAPER_PIPELAYER_SPEEDUP,
        paper_energy_saving=PAPER_PIPELAYER_ENERGY,
        per_workload=tuple(
            (r.network, r.speedup, r.energy_saving) for r in reports
        ),
    )


def regan_table1(
    array_budget: int = REGAN_ARRAY_BUDGET,
    batch: int = 32,
    scheme: str = "sp_cs",
    tech: XbarTechParams = DEFAULT_TECH,
) -> TableOneRow:
    """Table I row 2: ReGAN over the four-dataset DCGAN suite."""
    check_positive("batch", batch)
    reports: List[ReGANReport] = []
    for name, (generator, discriminator) in regan_suite().items():
        model = ReGANModel(
            generator,
            discriminator,
            array_budget=array_budget,
            scheme=scheme,
            tech=tech,
            dataset=name,
        )
        reports.append(model.report(batch=batch))
    return TableOneRow(
        accelerator="ReGAN",
        speedup=geometric_mean([r.speedup for r in reports]),
        energy_saving=geometric_mean([r.energy_saving for r in reports]),
        paper_speedup=PAPER_REGAN_SPEEDUP,
        paper_energy_saving=PAPER_REGAN_ENERGY,
        per_workload=tuple(
            (r.dataset, r.speedup, r.energy_saving) for r in reports
        ),
    )


#: Documented tolerance of the counter-vs-analytic consistency gate:
#: both paths multiply the same operation counts by the same
#: technology costs, differing only in float summation order, so the
#: relative disagreement must stay within a few ULP-scale rounding
#: steps.
MEASURED_CONSISTENCY_RTOL = 1e-9


def measured_table1(
    batch: int = 32,
    tech: XbarTechParams = DEFAULT_TECH,
    collector=None,
) -> Dict[str, Any]:
    """Table I energy savings derived from *counters*, not formulas.

    Runs both accelerator models in event-counter mode
    (``record_event_counters``), prices the counters through
    :func:`repro.telemetry.attribute_energy` with the
    :func:`repro.arch.components.event_costs` table, and rebuilds the
    energy-saving ratios from the attributed totals.  The closed-form
    :func:`pipelayer_table1` / :func:`regan_table1` path is the
    consistency oracle: per workload, ``consistency`` records the
    worst relative disagreement between the counter-derived total and
    the analytic ``EnergyBreakdown.total``, and the gate asserts it
    stays within :data:`MEASURED_CONSISTENCY_RTOL`.

    Counters land under ``table1/pipelayer[<net>]/`` and
    ``table1/regan[<dataset>]/`` on ``collector`` when given (and on a
    private collector otherwise), so the same counter tree feeds
    ``repro report --energy`` and the ``energy_attribution`` bench.
    """
    from repro.arch.components import event_costs
    from repro.telemetry import Collector, attribute_energy

    check_positive("batch", batch)
    tel = collector if collector is not None else Collector(
        record_spans=False
    )
    costs = event_costs(tech)
    rows: Dict[str, Any] = {}
    worst = 0.0

    def measure(prefix: str, analytic_total: float,
                gpu_energy: float) -> Dict[str, Any]:
        nonlocal worst
        report = attribute_energy(
            {
                path: value
                for path, value in tel.counters().items()
                if path.startswith(prefix + "/")
            },
            costs,
            source_name=prefix,
        )
        measured = report["totals"]["total_joules"]
        error = abs(measured - analytic_total) / analytic_total
        worst = max(worst, error)
        return {
            "measured_joules": measured,
            "analytic_joules": analytic_total,
            "consistency": error,
            "energy_saving": gpu_energy / measured,
            "average_watts": report["totals"]["average_watts"],
        }

    pipelayer_workloads: Dict[str, Any] = {}
    for spec in pipelayer_suite():
        model = PipeLayerModel(
            spec, array_budget=PIPELAYER_ARRAY_BUDGET, tech=tech
        )
        scope = tel.scope(f"table1/pipelayer[{spec.name.lower()}]")
        model.record_event_counters(scope, batch=batch, training=True)
        report = model.report(batch=batch, training=True)
        pipelayer_workloads[spec.name] = measure(
            f"table1/pipelayer[{spec.name.lower()}]",
            report.energy_per_image.total,
            report.gpu_energy_per_image,
        )
    regan_workloads: Dict[str, Any] = {}
    for name, (generator, discriminator) in regan_suite().items():
        model = ReGANModel(
            generator,
            discriminator,
            array_budget=REGAN_ARRAY_BUDGET,
            scheme="sp_cs",
            tech=tech,
            dataset=name,
        )
        scope = tel.scope(f"table1/regan[{name.lower()}]")
        model.record_event_counters(scope, batch=batch)
        report = model.report(batch=batch)
        regan_workloads[name] = measure(
            f"table1/regan[{name.lower()}]",
            report.energy_per_iteration.total,
            report.gpu_energy_per_iteration,
        )
    rows = {
        "PipeLayer": {
            "workloads": pipelayer_workloads,
            "energy_saving_geomean": geometric_mean(
                [w["energy_saving"] for w in pipelayer_workloads.values()]
            ),
            "analytic_energy_saving_geomean": pipelayer_table1(
                batch=batch, tech=tech
            ).energy_saving,
            "paper_energy_saving": PAPER_PIPELAYER_ENERGY,
        },
        "ReGAN": {
            "workloads": regan_workloads,
            "energy_saving_geomean": geometric_mean(
                [w["energy_saving"] for w in regan_workloads.values()]
            ),
            "analytic_energy_saving_geomean": regan_table1(
                batch=batch, tech=tech
            ).energy_saving,
            "paper_energy_saving": PAPER_REGAN_ENERGY,
        },
    }
    if worst > MEASURED_CONSISTENCY_RTOL:
        raise ValueError(
            f"counter-derived Table I energy disagrees with the "
            f"analytic estimator: worst relative error {worst:.3e} > "
            f"{MEASURED_CONSISTENCY_RTOL}"
        )
    return {
        "batch": batch,
        "consistency_rtol": MEASURED_CONSISTENCY_RTOL,
        "worst_consistency": worst,
        "rows": rows,
    }
