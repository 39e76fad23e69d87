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
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.pipelayer import PipeLayerModel
from repro.core.regan import ReGANModel
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
        return render_table1_row(self.to_dict())


def render_table1_row(row: Dict[str, Any]) -> str:
    """Human text of one Table I row document (``TableOneRow.to_dict``)."""
    lines = [
        f"{row['accelerator']}: speedup {row['speedup']:.2f}x "
        f"(paper {row['paper_speedup']}x), energy saving "
        f"{row['energy_saving']:.2f}x (paper {row['paper_energy_saving']}x)"
    ]
    for entry in row["per_workload"]:
        lines.append(
            f"  {entry['network']:<16s} speedup {entry['speedup']:8.1f}x   "
            f"energy saving {entry['energy_saving']:6.1f}x"
        )
    return "\n".join(lines)


def _pipelayer_models(
    array_budget: int, tech: XbarTechParams
) -> List[Tuple[str, PipeLayerModel]]:
    """``(network, model)`` over the MNIST/ImageNet suite."""
    return [
        (spec.name, PipeLayerModel(spec, array_budget=array_budget, tech=tech))
        for spec in pipelayer_suite()
    ]


def _regan_models(
    array_budget: int, scheme: str, tech: XbarTechParams
) -> List[Tuple[str, ReGANModel]]:
    """``(dataset, model)`` over the four-dataset DCGAN suite."""
    return [
        (
            name,
            ReGANModel(
                generator,
                discriminator,
                array_budget=array_budget,
                scheme=scheme,
                tech=tech,
                dataset=name,
            ),
        )
        for name, (generator, discriminator) in regan_suite().items()
    ]


def _table1_row(
    accelerator: str,
    reports: Sequence[Tuple[str, Any]],
    paper_speedup: float,
    paper_energy_saving: float,
) -> TableOneRow:
    """One Table I row: geomeans over ``(workload, report)`` pairs."""
    return TableOneRow(
        accelerator=accelerator,
        speedup=geometric_mean([r.speedup for _, r in reports]),
        energy_saving=geometric_mean([r.energy_saving for _, r in reports]),
        paper_speedup=paper_speedup,
        paper_energy_saving=paper_energy_saving,
        per_workload=tuple(
            (name, r.speedup, r.energy_saving) for name, r in reports
        ),
    )


def pipelayer_table1(
    array_budget: int = PIPELAYER_ARRAY_BUDGET,
    batch: int = 32,
    tech: XbarTechParams = DEFAULT_TECH,
    training: bool = True,
) -> TableOneRow:
    """Table I row 1: PipeLayer over the MNIST/ImageNet suite."""
    check_positive("batch", batch)
    reports = [
        (name, model.report(batch=batch, training=training))
        for name, model in _pipelayer_models(array_budget, tech)
    ]
    return _table1_row(
        "PipeLayer", reports, PAPER_PIPELAYER_SPEEDUP, PAPER_PIPELAYER_ENERGY
    )


def regan_table1(
    array_budget: int = REGAN_ARRAY_BUDGET,
    batch: int = 32,
    scheme: str = "sp_cs",
    tech: XbarTechParams = DEFAULT_TECH,
) -> TableOneRow:
    """Table I row 2: ReGAN over the four-dataset DCGAN suite."""
    check_positive("batch", batch)
    reports = [
        (name, model.report(batch=batch))
        for name, model in _regan_models(array_budget, scheme, tech)
    ]
    return _table1_row(
        "ReGAN", reports, PAPER_REGAN_SPEEDUP, PAPER_REGAN_ENERGY
    )


#: Documented tolerance of the counter-vs-analytic consistency gate:
#: both paths price each model's one work count with the same
#: technology costs, grouped differently (per-sub-cycle energy vs
#: per-event costs), so the relative disagreement must stay within a
#: few ULP-scale rounding steps.
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
    energy-saving ratios from the attributed totals.  Each model's
    counters and closed-form report read one work count, so the gate
    checks the *pricing* (``event_costs`` against the component
    formulas): per workload, ``consistency`` is the relative
    disagreement with the analytic ``EnergyBreakdown.total``, and the
    worst must stay within :data:`MEASURED_CONSISTENCY_RTOL`.

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
    for accelerator, models, paper_energy_saving, energies in (
        (
            "PipeLayer",
            _pipelayer_models(PIPELAYER_ARRAY_BUDGET, tech),
            PAPER_PIPELAYER_ENERGY,
            lambda r: (r.energy_per_image.total, r.gpu_energy_per_image),
        ),
        (
            "ReGAN",
            _regan_models(REGAN_ARRAY_BUDGET, "sp_cs", tech),
            PAPER_REGAN_ENERGY,
            lambda r: (
                r.energy_per_iteration.total,
                r.gpu_energy_per_iteration,
            ),
        ),
    ):
        workloads: Dict[str, Any] = {}
        analytic_savings = []
        for name, model in models:
            prefix = f"table1/{accelerator.lower()}[{name.lower()}]"
            model.record_event_counters(tel.scope(prefix), batch=batch)
            report = model.report(batch=batch)
            analytic_total, gpu_energy = energies(report)
            attributed = attribute_energy(
                {
                    path: value
                    for path, value in tel.counters().items()
                    if path.startswith(prefix + "/")
                },
                costs,
                source_name=prefix,
            )
            measured = attributed["totals"]["total_joules"]
            error = abs(measured - analytic_total) / analytic_total
            worst = max(worst, error)
            workloads[name] = {
                "measured_joules": measured,
                "analytic_joules": analytic_total,
                "consistency": error,
                "energy_saving": gpu_energy / measured,
                "average_watts": attributed["totals"]["average_watts"],
            }
            analytic_savings.append(report.energy_saving)
        rows[accelerator] = {
            "workloads": workloads,
            "energy_saving_geomean": geometric_mean(
                [w["energy_saving"] for w in workloads.values()]
            ),
            "analytic_energy_saving_geomean": geometric_mean(
                analytic_savings
            ),
            "paper_energy_saving": paper_energy_saving,
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
