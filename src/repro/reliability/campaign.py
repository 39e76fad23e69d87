"""Deterministic fault-injection campaigns over simulated workloads.

A *campaign* answers the question the fault-tolerance literature keeps
asking of ReRAM accelerators: how fast does a deployed network degrade
as device faults scale up?  :func:`run_campaign` sweeps one fault axis
(stuck cells, transient read upsets, conductance drift, programming or
read noise) across a workload from the :class:`repro.api.Simulator`
facade and reports per-scenario, per-layer, and per-tile damage as one
JSON-able document.

Seeding discipline
------------------
Everything derives from the single ``seed`` argument: the network
weights, the (float) reference training run, the evaluation inputs,
and every per-array device stream.  Two campaigns with the same
arguments produce **byte-identical** JSON at a fixed BLAS thread
count (a conv workload's large GEMMs round differently when BLAS
splits them across threads, so CI pins ``OPENBLAS_NUM_THREADS=1`` for
the mnist_cnn digest).  Because each device effect draws from its own
child stream, sweeping one axis moves only that effect — stuck-fault
*placement*, for example, is nested across rates (the cells broken at
0.1% are a subset of those broken at 1%).
The ``"both"`` backend mode runs every scenario through the loop and
vectorized engines and verifies the reports agree exactly — the
backend-equivalence contract, enforced at campaign granularity.

Sweep cells
-----------
Each (backend × scenario) point of a campaign is one pure sweep cell
(:func:`run_campaign_cell`, kind ``"campaign_scenario"``): the cell
spec carries the complete configuration — workload, seed, scenario,
engine config as plain data — and the cell rebuilds its golden
reference deterministically in whatever process it lands (memoised
per process, so a worker trains the reference once, not once per
cell).  :func:`run_campaign` is the ``workers=1`` configuration of
that same machinery; ``workers=N`` shards the cells over a process
pool and merges a byte-identical report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.reliability.metrics import (
    ReferenceTrace,
    lockstep_trace,
    output_metrics,
    record_reference,
    weight_error,
)
from repro.sweep import SweepCache, SweepCell, run_sweep
from repro.telemetry import NULL_COLLECTOR, SCHEMA_VERSION, Collector
from repro.utils.validation import (
    check_choice,
    check_non_negative,
    check_positive,
)
from repro.xbar.device import DeviceConfig
from repro.xbar.engine import (
    CrossbarEngineConfig,
    engine_config_from_dict,
    engine_config_to_dict,
)

#: Sweepable fault axes: name -> DeviceConfig overrides at one rate.
#: The "stuck" axis splits the rate evenly between stuck-off and
#: stuck-on cells (fabrication defects come in both polarities).
AXES: Dict[str, Callable[[float], Dict[str, float]]] = {
    "stuck": lambda rate: {
        "stuck_off_rate": rate / 2.0,
        "stuck_on_rate": rate / 2.0,
    },
    "upset": lambda rate: {"upset_rate": rate},
    "drift": lambda rate: {"drift_nu": rate},
    "program": lambda rate: {"program_noise": rate},
    "read": lambda rate: {"read_noise": rate},
}

#: Default sweep points per axis (always starting from the fault-free
#: point, so every report carries its own quantization-only floor).
DEFAULT_RATES: Dict[str, Sequence[float]] = {
    "stuck": (0.0, 0.001, 0.01, 0.05),
    "upset": (0.0, 0.001, 0.01, 0.05),
    "drift": (0.0, 0.01, 0.05, 0.2),
    "program": (0.0, 0.02, 0.05, 0.1),
    "read": (0.0, 0.1, 0.3, 1.0),
}

BACKENDS = ("loop", "vectorized", "both")


class BackendMismatchError(AssertionError):
    """Loop and vectorized backends disagreed on a fault outcome.

    Raised by ``backend="both"`` campaigns; either backend alone is
    deterministic, so a mismatch means the bit-identity contract of
    :mod:`repro.xbar.engine` is broken, not that the run is noisy.
    """


@dataclass(frozen=True)
class FaultScenario:
    """One point of a sweep: an axis at a rate."""

    name: str
    axis: str
    rate: float

    def device(self, base: DeviceConfig) -> DeviceConfig:
        """The base device with this scenario's fault rate applied."""
        return replace(base, **AXES[self.axis](self.rate))


def scenarios_for(
    axis: str, rates: Optional[Sequence[float]] = None
) -> List[FaultScenario]:
    """Build the scenario list for one axis (default rates if ``None``).

    Each scenario's device is built once here, so a rate outside its
    axis's range (a stuck rate above 1, a negative drift exponent)
    raises :class:`DeviceConfig`'s own ``ValueError`` before any work
    starts.
    """
    check_choice("axis", axis, tuple(sorted(AXES)))
    if rates is None:
        rates = DEFAULT_RATES[axis]
    scenarios = [
        FaultScenario(name=f"{axis}={float(rate):g}", axis=axis, rate=float(rate))
        for rate in rates
    ]
    for scenario in scenarios:
        scenario.device(DeviceConfig())
    return scenarios


@dataclass
class ReferenceContext:
    """The golden float model, its recorded forward pass over the
    evaluation inputs, their labels and the baseline accuracy."""

    reference: Any
    labels: np.ndarray
    baseline_accuracy: float
    trace: ReferenceTrace


def _scenario_result(
    scenario: FaultScenario,
    workload: str,
    seed: int,
    base_config: CrossbarEngineConfig,
    backend: str,
    context: ReferenceContext,
    include_tiles: bool,
    collector: Optional[Collector] = None,
) -> Dict[str, Any]:
    """Run one scenario through one backend and report its damage."""
    from repro.api import Simulator

    device = scenario.device(base_config.device)
    config = replace(base_config, device=device)
    sim = Simulator.from_workload(
        workload,
        engine_config=config,
        backend=backend,
        seed=seed,
        collector=collector,
    )
    # The scenario network inherits the golden network's (trained)
    # weights, so every divergence below is injected-fault damage.
    for source, target in zip(
        context.reference.network.parameters(), sim.network.parameters()
    ):
        target.copy_from(source)
    faulty_logits, layer_records = lockstep_trace(context.trace, sim.network)
    metrics = output_metrics(
        context.trace.logits, faulty_logits, context.labels
    )
    layers = []
    engines = sim.deployment.engines if sim.deployment else {}
    for record in layer_records:
        entry: Dict[str, Any] = dict(record)
        engine = engines.get(record["layer"])
        if engine is not None:
            fault = engine.fault_report()
            entry["weight_rms_error"] = weight_error(engine)
            entry["arrays"] = engine.array_count
            entry["cells"] = fault["cells"]
            entry["stuck_off"] = fault["stuck_off"]
            entry["stuck_on"] = fault["stuck_on"]
            if include_tiles:
                entry["tiles"] = fault["tiles"]
        layers.append(entry)
    stats = sim.stats()
    sim.undeploy()
    return {
        "name": scenario.name,
        "axis": scenario.axis,
        "rate": scenario.rate,
        "device": AXES[scenario.axis](scenario.rate),
        "accuracy": metrics["accuracy"],
        "accuracy_drop": context.baseline_accuracy - metrics["accuracy"],
        "mismatch_rate": metrics["mismatch_rate"],
        "logit_rms_error": metrics["logit_rms_error"],
        "layers": layers,
        "stats": stats,
    }


#: Per-process memo of reference contexts keyed by their defining
#: arguments.  A worker process runs many cells of the same campaign;
#: the (trained) golden reference is identical for all of them, so it
#: is built and forwarded once per process and reused.  Bounded small:
#: a process rarely serves more than one campaign configuration at a
#: time, and each context keeps its recorded activations (about 5 MB
#: for 64 ``mnist_cnn`` inputs).
_REFERENCE_MEMO: Dict[str, ReferenceContext] = {}
_REFERENCE_MEMO_MAX = 2


def _build_reference(
    workload: str,
    seed: int,
    count: int,
    batch: int,
    train_epochs: int,
    train_count: int,
    collector: Optional[Collector],
) -> ReferenceContext:
    from repro.api import Simulator
    from repro.serve.jobs import TrainingJob

    reference = Simulator.from_workload(
        workload, seed=seed, deploy=False, collector=collector
    )
    if train_epochs > 0:
        reference.run(
            TrainingJob(
                workload=workload,
                seed=seed,
                epochs=train_epochs,
                batch=batch,
                train_count=train_count,
            )
        )
    inputs, labels = reference.make_inputs(count)
    trace = record_reference(reference.network, inputs, batch)
    baseline_accuracy = float(
        np.mean(np.argmax(trace.logits, axis=1) == labels)
    )
    return ReferenceContext(reference, labels, baseline_accuracy, trace)


def reference_context(
    workload: str,
    seed: int,
    count: int,
    batch: int,
    train_epochs: int,
    train_count: int,
    collector: Optional[Collector] = None,
) -> ReferenceContext:
    """Golden reference for one campaign configuration, memoised.

    Deterministic in its arguments (the same seed trains the same
    network and draws the same inputs in any process), so the
    per-process memo changes cost, never results.  The memo is only
    consulted for *untelemetered* requests — a caller that passes a
    live collector gets a fresh build so its ``reference/...`` counter
    tree is complete — but every build (telemetered or not) is stored,
    which is how ``workers=1`` cells reuse the context their campaign
    just built.
    """
    key = repr(
        (
            workload,
            int(seed),
            int(count),
            int(batch),
            int(train_epochs),
            int(train_count),
        )
    )
    live = collector is not None and bool(collector)
    if not live and key in _REFERENCE_MEMO:
        return _REFERENCE_MEMO[key]
    context = _build_reference(
        workload, seed, count, batch, train_epochs, train_count, collector
    )
    while len(_REFERENCE_MEMO) >= _REFERENCE_MEMO_MAX:
        _REFERENCE_MEMO.pop(next(iter(_REFERENCE_MEMO)))
    _REFERENCE_MEMO[key] = context
    return context


def run_campaign_cell(
    spec: Dict[str, Any], collector: Collector
) -> Dict[str, Any]:
    """Sweep cell function for one (backend × scenario) campaign point.

    Pure and pickle-free by construction (module-level, plain-data
    spec): the spec carries everything — workload, seed, the scenario
    triple, the full engine config as a dict — and the golden
    reference is rebuilt deterministically in whichever process the
    cell lands (see :func:`reference_context`).  Registered as sweep
    kind ``"campaign_scenario"``.
    """
    scenario = FaultScenario(
        name=str(spec["name"]),
        axis=str(spec["axis"]),
        rate=float(spec["rate"]),
    )
    base_config = engine_config_from_dict(spec["engine_config"])
    context = reference_context(
        spec["workload"],
        int(spec["seed"]),
        int(spec["count"]),
        int(spec["batch"]),
        int(spec["train_epochs"]),
        int(spec["train_count"]),
    )
    return _scenario_result(
        scenario,
        str(spec["workload"]),
        int(spec["seed"]),
        base_config,
        str(spec["backend"]),
        context,
        bool(spec["include_tiles"]),
        collector=collector,
    )


def campaign_cells(
    workload: str,
    scenarios: Sequence[FaultScenario],
    seeds: Sequence[int],
    backends: Sequence[str],
    count: int,
    batch: int,
    train_epochs: int,
    include_tiles: bool,
    engine_config: Optional[CrossbarEngineConfig] = None,
    train_count: int = 256,
) -> List[SweepCell]:
    """The ``campaign_scenario`` cells of a seed × backend × scenario grid.

    Seed-major, then backend, then scenario.  Each spec carries its
    ``name``, ``seed`` and ``backend``, so callers name the cells'
    telemetry scopes from the cell itself.
    """
    check_non_negative("train_epochs", train_epochs)
    config_dict = engine_config_to_dict(
        engine_config or CrossbarEngineConfig()
    )
    return [
        SweepCell(
            "campaign_scenario",
            {
                "name": scenario.name,
                "axis": scenario.axis,
                "rate": scenario.rate,
                "workload": workload,
                "seed": int(seed),
                "count": int(count),
                "batch": int(batch),
                "backend": run_backend,
                "engine_config": config_dict,
                "train_epochs": int(train_epochs),
                "train_count": int(train_count),
                "include_tiles": bool(include_tiles),
            },
        )
        for seed in seeds
        for run_backend in backends
        for scenario in scenarios
    ]


def run_campaign(
    workload: str = "mlp",
    axis: str = "stuck",
    rates: Optional[Sequence[float]] = None,
    seed: int = 0,
    count: int = 64,
    batch: int = 32,
    backend: str = "vectorized",
    engine_config: Optional[CrossbarEngineConfig] = None,
    train_epochs: int = 5,
    train_count: int = 256,
    include_tiles: bool = True,
    collector: Optional[Collector] = None,
    workers: int = 1,
    sweep_cache: Optional[SweepCache] = None,
    shard_order: Optional[Sequence[int]] = None,
    mp_context: Optional[str] = None,
) -> Dict[str, Any]:
    """Sweep one fault axis across a workload; return the full report.

    Parameters
    ----------
    workload:
        A :attr:`repro.api.Simulator.WORKLOADS` name.
    axis, rates:
        The fault knob to sweep (see :data:`AXES`) and its sweep
        points; ``None`` takes :data:`DEFAULT_RATES`.
    seed:
        Master seed — same arguments, same seed, same BLAS thread
        count: byte-identical report.
    count, batch:
        Evaluation inputs and lockstep batch size.
    backend:
        ``"loop"``, ``"vectorized"``, or ``"both"`` (run both, verify
        identical fault outcomes, raise :class:`BackendMismatchError`
        otherwise).
    engine_config:
        Base crossbar pipeline; scenario devices are grafted onto it.
    train_epochs, train_count:
        Float-path epochs and training-set size used to train the
        golden network before evaluation (``train_epochs=0`` keeps the
        untrained init, where accuracy sits at chance and only
        mismatch/error metrics carry signal).
    include_tiles:
        Attach the per-tile stuck-cell census to every layer record.
    collector:
        Optional :class:`repro.telemetry.Collector` (a scope is a
        ``Collector`` over its root's store): the reference training
        run writes under ``reference/...``, each scenario's engines
        under ``scenario[<name>]/...`` (prefixed by ``backend[<name>]/``
        in ``"both"`` mode so the two runs stay separable), plus
        campaign-level ``scenarios`` counters and — on the
        single-process path — per-scenario timing spans.
    workers:
        Process count for the scenario sweep.  ``workers=1`` runs the
        cells inline (the legacy single-process path); any value
        produces a byte-identical report.
    sweep_cache:
        Optional :class:`repro.sweep.SweepCache`: completed scenario
        cells replay from disk, so an interrupted campaign resumes
        without recomputation.
    shard_order, mp_context:
        Passed through to :func:`repro.sweep.run_sweep` (test hooks).
    """
    check_choice("backend", backend, BACKENDS)
    check_positive("count", count)
    check_positive("batch", batch)
    check_non_negative("train_epochs", train_epochs)
    tel = collector if collector is not None else NULL_COLLECTOR
    scenarios = scenarios_for(axis, rates)
    base_config = engine_config or CrossbarEngineConfig()

    # Golden model: exact float forward, trained on the float path.
    # Built through the same memoised context the cells use, so the
    # inline (workers=1) cells reuse it instead of retraining.
    with tel.span("reference"):
        context = reference_context(
            workload,
            seed,
            count,
            batch,
            train_epochs,
            train_count,
            collector=tel.scope("reference"),
        )
    baseline_accuracy = context.baseline_accuracy

    backends = ("loop", "vectorized") if backend == "both" else (backend,)
    cells = campaign_cells(
        workload,
        scenarios,
        (seed,),
        backends,
        count=count,
        batch=batch,
        engine_config=base_config,
        train_epochs=train_epochs,
        train_count=train_count,
        include_tiles=include_tiles,
    )
    # "both" mode prefixes each scope so the two runs stay separable.
    prefix = "backend[{backend}]/" if backend == "both" else ""
    sweep = run_sweep(
        cells,
        workers=workers,
        cache=sweep_cache,
        collector=tel,
        scope_for=lambda index, cell: (
            prefix + "scenario[{name}]"
        ).format(**cell.spec),
        shard_order=shard_order,
        mp_context=mp_context,
    )
    tel.count("scenarios", len(cells))
    results_flat = sweep.results()
    per_backend: Dict[str, List[Dict[str, Any]]] = {
        run_backend: results_flat[
            position * len(scenarios) : (position + 1) * len(scenarios)
        ]
        for position, run_backend in enumerate(backends)
    }
    backends_match: Optional[bool] = None
    if backend == "both":
        for loop_result, vec_result in zip(
            per_backend["loop"], per_backend["vectorized"]
        ):
            if loop_result != vec_result:
                raise BackendMismatchError(
                    f"scenario {loop_result['name']!r}: loop and "
                    f"vectorized backends reported different fault "
                    f"outcomes under seed {seed}"
                )
        backends_match = True
    results = per_backend[backends[-1]]

    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "axis": axis,
        "rates": [scenario.rate for scenario in scenarios],
        "seed": int(seed),
        "count": int(count),
        "batch": int(batch),
        "train_epochs": int(train_epochs),
        "train_count": int(train_count),
        "backend": backend,
        "base_device": asdict(base_config.device),
        "baseline_accuracy": baseline_accuracy,
        "scenarios": results,
    }
    if backends_match is not None:
        report["backends_match"] = backends_match
    return report


def campaign_summary(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a campaign report (CLI text mode)."""
    lines = [
        f"reliability campaign: {report['workload']} / {report['axis']} "
        f"axis, {report['count']} inputs, seed {report['seed']}, "
        f"backend {report['backend']}"
        + (
            " (loop == vectorized ✓)"
            if report.get("backends_match")
            else ""
        ),
        f"golden accuracy {report['baseline_accuracy']:.3f} "
        f"(float reference, {report['train_epochs']} epoch(s))",
        f"{'scenario':<16s}{'accuracy':>10s}{'drop':>8s}"
        f"{'mismatch':>10s}{'logit rms':>11s}{'stuck':>8s}",
    ]
    for scenario in report["scenarios"]:
        stuck = sum(
            layer.get("stuck_off", 0) + layer.get("stuck_on", 0)
            for layer in scenario["layers"]
        )
        lines.append(
            f"{scenario['name']:<16s}{scenario['accuracy']:>10.3f}"
            f"{scenario['accuracy_drop']:>8.3f}"
            f"{scenario['mismatch_rate']:>10.3f}"
            f"{scenario['logit_rms_error']:>11.4f}{stuck:>8d}"
        )
    worst = report["scenarios"][-1]
    deepest = max(
        worst["layers"],
        key=lambda layer: layer["output_rms_error"],
        default=None,
    )
    if deepest is not None:
        lines.append(
            f"worst scenario {worst['name']}: largest layer error at "
            f"{deepest['layer']} (rms {deepest['output_rms_error']:.4f})"
        )
    return "\n".join(lines)
