"""Sensitivity of the Table I conclusions to the technology constants.

DESIGN.md's substitution table replaces the papers' circuit-level
numbers with parameter tables assembled from the public literature.
That substitution is only honest if the *conclusions* — who wins, by
roughly what factor — survive plausible perturbations of those
constants.  This module quantifies that: each technology parameter is
scaled down/up by a factor and the Table I metrics recomputed, giving a
tornado-style table of metric swings.

Reading the output: parameters whose swing is small are "don't-care"
constants; a parameter whose halving/doubling flips a conclusion would
demand a sourced value.  (Spoiler, recorded by the benchmark: speedup
is insensitive to every energy constant and linear only in
``subcycle_time``; the energy ratio moves with ADC energy, write
energy, and static power — but stays an order of magnitude above 1x
throughout, so "large speedup, modest energy saving" is robust.)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.arch.params import DEFAULT_TECH, XbarTechParams
from repro.telemetry import Collector
from repro.utils.validation import check_positive

#: Technology fields that are scalable costs (area field excluded from
#: the default sweep: it has no effect on speedup/energy).
SWEEPABLE_FIELDS = (
    "subcycle_time",
    "array_read_energy",
    "adc_energy_per_conversion",
    "driver_energy_per_line",
    "shift_add_energy_per_column",
    "cell_write_energy",
    "buffer_energy_per_bit",
    "array_static_power",
    "controller_static_power",
)


@dataclass(frozen=True)
class SensitivityRow:
    """Metric values for one parameter at (low, nominal, high)."""

    field: str
    low_factor: float
    high_factor: float
    metric_low: float
    metric_nominal: float
    metric_high: float

    @property
    def swing(self) -> float:
        """Relative metric range across the sweep (tornado width)."""
        return (
            abs(self.metric_high - self.metric_low) / self.metric_nominal
        )

    @property
    def direction(self) -> str:
        """Whether increasing the parameter raises or lowers the metric."""
        if self.metric_high > self.metric_low:
            return "increasing"
        if self.metric_high < self.metric_low:
            return "decreasing"
        return "flat"


def scaled_tech(
    tech: XbarTechParams, field_name: str, factor: float
) -> XbarTechParams:
    """Copy of ``tech`` with one field multiplied by ``factor``."""
    check_positive("factor", factor)
    if field_name not in {f.name for f in fields(XbarTechParams)}:
        raise ValueError(f"unknown technology field {field_name!r}")
    value = getattr(tech, field_name) * factor
    return replace(tech, **{field_name: value})


def _metric_speedup(tech: XbarTechParams) -> float:
    from repro.core.estimator import pipelayer_table1

    return float(pipelayer_table1(tech=tech).speedup)


def _metric_energy(tech: XbarTechParams) -> float:
    from repro.core.estimator import pipelayer_table1

    return float(pipelayer_table1(tech=tech).energy_saving)


#: Named Table I metrics — the pickleable vocabulary a sensitivity
#: *cell spec* may reference (a bare lambda cannot cross a process
#: boundary or be content-hashed, a name can).
METRICS: Dict[str, Callable[[XbarTechParams], float]] = {
    "speedup": _metric_speedup,
    "energy": _metric_energy,
}


def resolve_metric(metric: str) -> Callable[[XbarTechParams], float]:
    """The metric callable a :data:`METRICS` name stands for."""
    function = METRICS.get(metric)
    if function is None:
        raise ValueError(
            f"unknown sensitivity metric {metric!r}; "
            f"known metrics: {sorted(METRICS)}"
        )
    return function


def run_sensitivity_cell(
    spec: Dict[str, Any], collector: Collector
) -> Dict[str, Any]:
    """Sweep cell function for one tornado field (kind ``"sensitivity_point"``).

    The spec names the metric (a :data:`METRICS` key), the field, the
    scaling factors, and the full technology table as a dict — a pure
    function of plain data, so the point computes identically in any
    process.
    """
    metric = resolve_metric(str(spec["metric"]))
    tech = XbarTechParams(**spec["tech"])
    field_name = str(spec["field"])
    low_factor = float(spec["low_factor"])
    high_factor = float(spec["high_factor"])
    nominal = metric(tech)
    low = metric(scaled_tech(tech, field_name, low_factor))
    high = metric(scaled_tech(tech, field_name, high_factor))
    collector.count("points", 3)
    return {
        "field": field_name,
        "low_factor": low_factor,
        "high_factor": high_factor,
        "metric_low": low,
        "metric_nominal": nominal,
        "metric_high": high,
    }


def tech_sensitivity(
    metric: str,
    tech: XbarTechParams = DEFAULT_TECH,
    field_names: Sequence[str] = SWEEPABLE_FIELDS,
    low_factor: float = 0.5,
    high_factor: float = 2.0,
    workers: int = 1,
    collector: Optional[Collector] = None,
    shard_order: Optional[Sequence[int]] = None,
    mp_context: Optional[str] = None,
) -> List[SensitivityRow]:
    """Tornado sweep: the :data:`METRICS` entry ``metric`` per field.

    Each field is scaled by ``low_factor`` and ``high_factor`` in turn.
    Returns one row per field, sorted by swing, widest first.  Each
    field is one sweep cell (:func:`run_sensitivity_cell`), so
    ``workers=N`` shards the fields over a process pool with the same
    result for any worker count.
    """
    check_positive("low_factor", low_factor)
    check_positive("high_factor", high_factor)
    # Lazy: sweep sits above arch in the layer DAG (ARCH001).
    from repro.sweep import SweepCell, run_sweep

    cells = [
        SweepCell(
            "sensitivity_point",
            {
                "name": field_name,
                "metric": metric,
                "field": field_name,
                "low_factor": float(low_factor),
                "high_factor": float(high_factor),
                "tech": asdict(tech),
            },
        )
        for field_name in field_names
    ]
    sweep = run_sweep(
        cells,
        workers=workers,
        collector=collector,
        scope_for=lambda index, cell: f"field[{cell.spec['field']}]",
        shard_order=shard_order,
        mp_context=mp_context,
    )
    results = sweep.results()
    if any(point["metric_nominal"] == 0 for point in results):
        raise ValueError("metric is zero at the nominal point")
    rows = [SensitivityRow(**point) for point in results]
    rows.sort(key=lambda row: row.swing, reverse=True)
    return rows


def render_tornado(document: Sequence[Mapping[str, Any]], metric: str) -> str:
    """Text table of tornado rows (``field``, ``metric_*``, ``swing``)."""
    lines = [
        f"PipeLayer {metric} sensitivity (0.5x .. 2x per field):",
        f"{'parameter':<28s}{'0.5x':>10s}{'nominal':>10s}{'2x':>10s}"
        f"{'swing':>8s}",
    ]
    for row in document:
        lines.append(
            f"{row['field']:<28s}{row['metric_low']:>10.2f}"
            f"{row['metric_nominal']:>10.2f}{row['metric_high']:>10.2f}"
            f"{row['swing']:>8.2f}"
        )
    return "\n".join(lines)


def conclusion_robustness(
    metrics: Dict[str, Callable[[XbarTechParams], float]],
    predicates: Dict[str, Callable[[Dict[str, float]], bool]],
    tech: XbarTechParams = DEFAULT_TECH,
    field_names: Sequence[str] = SWEEPABLE_FIELDS,
    factors: Tuple[float, float] = (0.5, 2.0),
) -> Dict[str, bool]:
    """Check that named conclusions hold at every sweep corner.

    ``metrics`` are named scalar functions of the tech table;
    ``predicates`` receive the metric dict and return whether a
    conclusion holds.  Each field is perturbed one-at-a-time; the
    return maps conclusion name -> held at every point.
    """
    held = {name: True for name in predicates}
    points = [tech] + [
        scaled_tech(tech, field_name, factor)
        for field_name in field_names
        for factor in factors
    ]
    for point in points:
        values = {name: fn(point) for name, fn in metrics.items()}
        for name, predicate in predicates.items():
            if not predicate(values):
                held[name] = False
    return held
