"""Which public functions of the program are timed, under which layer key.

:func:`install` wraps every boundary the benchmark reports on.  Span
names are the layer keys the per-layer metrics are built from:

=========================  ==========================================
span name                  wrapped callable
=========================  ==========================================
``nn.forward.<layer>``     ``Dense.forward`` / ``Conv2D.forward``
``xbar.prepare``           ``CrossbarEngine.prepare``
``xbar.matmul.<layer>``    ``CrossbarEngine.matmul`` (layer = caller)
``xbar.decompose``         ``SpikeCoder.decompose``
``xbar.read_effects``      ``CrossbarArray.read_noise_levels``,
                           ``transient_upset_levels``, ``drift_factors``
``xbar.adc_quantize``      ``adc.quantize_levels`` (both import sites)
``nn.train``               ``train_classifier`` as the facade calls it
``api.from_workload``      ``Simulator.from_workload``
``api.make_inputs``        ``Simulator.make_inputs``
``api.run``                ``Simulator.run``
``serve.parse``            ``job_from_dict`` as the server calls it
``serve.plan``             ``coalesce_plan`` as the server calls it
``serve.cache.lease``      ``ProgrammedStateCache.lease``
``serve.evaluate``         ``run_coalesced`` as the server calls it
``serve.price``            ``attribute_energy`` as the server calls it
``serve.report``           ``job_report`` as the server calls it
``reliability.reference``  ``reference_context``
``reliability.lockstep``   ``lockstep_trace`` as the campaign calls it
``sweep.cell``             ``run_cell`` as the executor calls it
``sweep.cache.store``      ``SweepCache.store``
=========================  ==========================================
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from tracer import LayerTotals, Tracer

#: Weight layers of ``mnist_cnn``: the ``<layer>`` of per-layer metrics.
LAYERS = ("c1", "c2", "fc1", "fc2")
#: Engine counters a perf-only change must leave exactly as they are.
COUNTS = ("mvm_calls", "subcycles", "array_reads", "adc_conversions",
          "macs", "array_programs")


def short_layer(name: str) -> str:
    """``"mnist_cnn.c1"`` -> ``"c1"``: the per-layer metric suffix."""
    return name.rsplit(".", 1)[-1]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.api as api
    import repro.reliability.campaign as campaign
    import repro.serve.server as server
    import repro.sweep.executor as executor
    import repro.xbar.adc as adc
    import repro.xbar.engine as engine
    from repro.nn.layers.conv import Conv2D
    from repro.nn.layers.dense import Dense
    from repro.serve.cache import ProgrammedStateCache
    from repro.sweep.cache import SweepCache
    from repro.xbar.crossbar import CrossbarArray
    from repro.xbar.dac import SpikeCoder

    def forward_name(layer: Any, *args: Any, **kwargs: Any) -> str:
        return f"nn.forward.{short_layer(layer.name)}"

    def matmul_name(*args: Any, **kwargs: Any) -> str:
        caller = tracer.current() or ""
        prefix = "nn.forward."
        layer = caller[len(prefix):] if caller.startswith(prefix) else "other"
        return f"xbar.matmul.{layer}"

    tracer.wrap(Dense, "forward", forward_name)
    tracer.wrap(Conv2D, "forward", forward_name)
    tracer.wrap(engine.CrossbarEngine, "prepare", "xbar.prepare")
    tracer.wrap(engine.CrossbarEngine, "matmul", matmul_name)
    tracer.wrap(SpikeCoder, "decompose", "xbar.decompose")
    for method in ("read_noise_levels", "transient_upset_levels",
                   "drift_factors"):
        tracer.wrap(CrossbarArray, method, "xbar.read_effects")
    tracer.wrap(engine, "quantize_levels", "xbar.adc_quantize")
    tracer.wrap(adc, "quantize_levels", "xbar.adc_quantize")
    tracer.wrap(api, "train_classifier", "nn.train")
    tracer.wrap(api.Simulator, "from_workload", "api.from_workload")
    tracer.wrap(api.Simulator, "make_inputs", "api.make_inputs")
    tracer.wrap(api.Simulator, "run", "api.run")
    tracer.wrap(server, "job_from_dict", "serve.parse")
    tracer.wrap(server, "coalesce_plan", "serve.plan")
    tracer.wrap(ProgrammedStateCache, "lease", "serve.cache.lease")
    tracer.wrap(server, "run_coalesced", "serve.evaluate")
    tracer.wrap(server, "attribute_energy", "serve.price")
    tracer.wrap(server, "job_report", "serve.report")
    tracer.wrap(campaign, "reference_context", "reliability.reference")
    tracer.wrap(campaign, "lockstep_trace", "reliability.lockstep")
    tracer.wrap(executor, "run_cell", "sweep.cell")
    tracer.wrap(SweepCache, "store", "sweep.cache.store")


def engine_counts(counters: Mapping[str, float]) -> Dict[str, float]:
    """:data:`COUNTS` summed over every engine in a counter tree.

    Engine counters sit at ``[<scope>/]engine/<layer>/<leaf>``.
    """
    totals = dict.fromkeys(COUNTS, 0.0)
    for path, value in counters.items():
        parts = path.split("/")
        if len(parts) >= 3 and parts[-3] == "engine" and parts[-1] in totals:
            totals[parts[-1]] += value
    return totals


def modeled_joules(counters: Mapping[str, float]) -> Dict[str, float]:
    """Layer -> joules ``attribute_energy`` prices its counters at."""
    from repro.arch.components import event_costs
    from repro.arch.params import DEFAULT_TECH
    from repro.telemetry import attribute_energy

    report = attribute_energy(counters, event_costs(DEFAULT_TECH))
    joules: Dict[str, float] = {}
    for group in report["groups"]:
        parts = group["prefix"].split("/")
        if len(parts) >= 2 and parts[-2] == "engine":
            layer = short_layer(parts[-1])
            joules[layer] = joules.get(layer, 0.0) + group["total_joules"]
    return joules


def total(summary: Mapping[str, LayerTotals], name: str) -> float:
    """Inclusive seconds of every span named ``name`` (0 if none)."""
    entry = summary.get(name)
    return entry.total_s if entry else 0.0


def own(summary: Mapping[str, LayerTotals], name: str) -> float:
    """Self seconds of every span named ``name`` (0 if none)."""
    entry = summary.get(name)
    return entry.self_s if entry else 0.0


def layer_metrics(summary: Mapping[str, LayerTotals],
                  counters: Mapping[str, float]) -> Dict[str, float]:
    """The ``xbar.*``, ``nn.*`` and ``api.*`` metrics of one trace.

    ``counters`` is the engine counter tree of the traced work (empty
    when the engines ran in another process).
    """
    counts = engine_counts(counters)
    joules = modeled_joules(counters)
    matmuls = [name for name in summary if name.startswith("xbar.matmul.")]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"xbar.matmul_s.{layer}"] = total(
            summary, f"xbar.matmul.{layer}"
        )
        metrics[f"nn.forward_self_s.{layer}"] = own(
            summary, f"nn.forward.{layer}"
        )
        metrics[f"xbar.modeled_joules.{layer}"] = joules.get(layer, 0.0)
    for name in ("decompose", "read_effects", "adc_quantize", "prepare"):
        metrics[f"xbar.{name}_s"] = total(summary, f"xbar.{name}")
    # The matmul's own time once decompose, read effects and the ADC
    # are taken out: the array matmul, the row-block fold, accumulate.
    metrics["xbar.array_rest_s"] = sum(own(summary, n) for n in matmuls)
    metrics["xbar.ns_per_array_read"] = (
        sum(total(summary, n) for n in matmuls) * 1e9 / counts["array_reads"]
        if counts["array_reads"] else 0.0
    )
    for name in COUNTS:
        if name != "subcycles":
            metrics[f"xbar.{name}"] = counts[name]
    metrics["nn.train_s"] = total(summary, "nn.train")
    metrics["api.from_workload_s"] = total(summary, "api.from_workload")
    metrics["api.make_inputs_s"] = total(summary, "api.make_inputs")
    return metrics
