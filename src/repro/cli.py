"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    repro table1                        # both Table I rows
    repro table1 --json                 # same, machine-readable
    repro fig4                          # mapping trade-off sweep
    repro fig5 --layers 8               # pipeline cycles + chart
    repro fig9                          # GAN pipeline schemes
    repro summary alexnet               # workload inventory
    repro trace --layers 3 --batch 4    # ASCII Gantt
    repro infer mnist_cnn --backend vectorized
    repro train mlp --epochs 2
    repro reliability mlp --axis stuck --backend both
    repro serve --port 8077             # multi-tenant job server
    repro serve --smoke 20 --json       # CI smoke: mixed jobs, 3 passes
    repro top --port 8077               # live per-tenant latency table
    repro check --format json          # determinism/contract linter

(``python -m repro.cli ...`` works identically when the console script
is not installed.)

Each option is declared only on the subcommands that read it, and
every subcommand accepts ``--json`` for a machine-readable document.

Twelve subcommands are *rows* (:data:`_ROWS`): ``table1``, ``fig4``,
``fig5``, ``fig9``, ``summary``, ``trace``, ``sensitivity``, ``area``,
``reliability``, ``sweep``, ``infer`` and ``train``.  A row is one
function ``(args, collector) -> (document, text)`` over the library
(:mod:`repro.api` and the modules beside it, which also render the
text), plus its document's validator if it has one.  Every row runs
the same way: compute, validate, print the JSON or the text.  A row
that refuses its arguments prints one ``repro <cmd>: error: ...`` line
and exits 2, as does any subcommand, before any work, whose output
file (``--trace-out``, ``--stats-out``, ``--event-log``) has no
directory to go to.

``repro profile <row> ...`` calls the row's function with a
:class:`repro.telemetry.Collector` and prints its counters, spans and
Chrome-trace path after the row's own text; ``repro report <row> ...``
renders the derived metrics (stage utilization, bubbles, ADC
conversions per MAC) of the row's counters or of a saved profile.
Neither wraps ``serve``, ``top``, ``check``, ``bench``, ``profile`` or
``report``.  ``repro bench`` runs the benchmark suite through one
registry and gates on the committed baselines.

The global ``--log-level`` / ``-v`` flags wire Python ``logging``
through the component-prefixed ``repro.*`` loggers; the default is
WARNING, so unflagged output is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api, telemetry
from repro.arch.components import event_costs
from repro.arch.params import DEFAULT_TECH
from repro.arch.report import pipelayer_report
from repro.arch.sensitivity import render_tornado, tech_sensitivity
from repro.core.estimator import render_table1_row
from repro.core.gan_pipeline import SCHEMES
from repro.core.pipelayer import PipeLayerModel
from repro.reliability import (
    AXES,
    campaign_summary,
    run_campaign,
    scenarios_for,
)
from repro.reliability.campaign import campaign_cells
from repro.sweep import (
    SweepCache,
    run_sweep,
    sweep_report,
    sweep_summary,
    validate_sweep_report,
)
from repro.utils.io import write_json_atomic
from repro.utils.logging import configure as _configure_logging
from repro.workloads import alexnet_spec, mnist_cnn_spec, vggnet_spec

_WORKLOADS = {
    "mnist": mnist_cnn_spec, "alexnet": alexnet_spec, "vggnet": vggnet_spec,
}

#: What a row returns: its document and the text rendering of it.
Rendered = Tuple[Any, str]
#: The collector a row reports to (``None`` outside profile/report).
Sink = Optional[telemetry.Collector]
#: A row: ``(args, collector) -> (document, text)``.
Row = Callable[[argparse.Namespace, Sink], Rendered]


class _CommandError(Exception):
    """A subcommand's one-line error; ``code`` is its exit code."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _emit(args: argparse.Namespace, document: Any, text: str) -> int:
    """Print ``document`` as JSON or the human ``text`` rendering.

    Every JSON document leaving the CLI carries ``schema_version``; a
    bare list is wrapped as ``{"schema_version": ..., "rows": [...]}``.
    """
    if args.json:
        if not isinstance(document, dict):
            document = {"rows": document}
        if "schema_version" not in document:
            document = {"schema_version": telemetry.SCHEMA_VERSION, **document}
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(text)
    return 0


def _fail(message: str, code: int = 2) -> int:
    """Report a failure on stderr; return the exit ``code``."""
    print(message, file=sys.stderr)
    return code


def _refuse(args: argparse.Namespace, error: _CommandError) -> int:
    """Print ``error`` as ``repro <cmd>: error: ...``; return its code."""
    return _fail(f"repro {args.command}: error: {error}", error.code)


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any work, an output file that cannot be created."""
    for name in ("trace_out", "stats_out", "event_log"):
        path = vars(args).get(name)
        if path is not None and not Path(path).parent.is_dir():
            raise _CommandError(f"cannot write {path}: "
                                f"{Path(path).parent} is not a directory")


def _write_json(path: Any, document: Any) -> None:
    """:func:`write_json_atomic`; a failure is a one-line error (exit 1)."""
    try:
        write_json_atomic(Path(path), document)
    except OSError as error:
        raise _CommandError(f"cannot write {path}: "
                            f"{error.strerror or error}", 1) from None


def _table1(args: argparse.Namespace, collector: Sink) -> Rendered:
    document = api.table1_report(args.batch)
    rows = [row for key, row in document.items() if key != "schema_version"]
    return document, "\n\n".join(map(render_table1_row, rows))


def _fig4(args: argparse.Namespace, collector: Sink) -> Rendered:
    document = api.mapping_sweep()
    return document, api.render_mapping_sweep(document)


def _fig5(args: argparse.Namespace, collector: Sink) -> Rendered:
    document = api.pipeline_sweep(layers=args.layers)
    return document, api.render_pipeline_sweep(document)


def _fig9(args: argparse.Namespace, collector: Sink) -> Rendered:
    document = api.gan_scheme_report(batch=args.batch)
    return document, api.render_gan_scheme_report(document)


def _summary(args: argparse.Namespace, collector: Sink) -> Rendered:
    spec = _WORKLOADS[args.workload]()
    document = {
        "name": spec.name, "depth": spec.depth, "layers": len(spec.layers),
        "total_macs": spec.total_macs, "total_weights": spec.total_weights,
        "total_activations": spec.total_activations,
    }
    return document, spec.summary()


def _trace(args: argparse.Namespace, collector: Sink) -> Rendered:
    document = api.schedule_trace(
        layers=args.layers, batch=args.batch, gan=args.gan,
        scheme=args.scheme, collector=collector,
    )
    if args.gan:
        run = (f"GAN iteration, L_D=L_G={args.layers}, B={args.batch}, "
               f"scheme={args.scheme}")
    else:
        run = f"training pipeline, L={args.layers}, B={args.batch}, 2 batches"
    header = f"{run} -> {document['makespan']} cycles"
    return document, header + "\n" + document["gantt"]


def _sensitivity(args: argparse.Namespace, collector: Sink) -> Rendered:
    rows = tech_sensitivity(args.metric, workers=args.workers,
                            collector=collector)
    keys = ("field", "metric_low", "metric_nominal", "metric_high", "swing")
    document = [{key: getattr(row, key) for key in keys} for row in rows]
    return document, render_tornado(document, args.metric)


def _area(args: argparse.Namespace, collector: Sink) -> Rendered:
    model = PipeLayerModel(_WORKLOADS[args.workload](),
                           array_budget=args.budget)
    report = pipelayer_report(model, batch=args.batch)
    keys = (
        "name", "array_count", "compute_area_mm2", "memory_area_mm2",
        "total_area_mm2", "static_power_w", "dynamic_power_w",
        "total_power_w", "area_vs_gpu",
    )
    document = {key: getattr(report, key) for key in keys}
    return document, report.summary()


def _campaign_scenarios(args: argparse.Namespace) -> Any:
    """The ``--axis``/``--rates`` scenarios; refused if out of range."""
    try:
        return scenarios_for(args.axis, args.rates)
    except ValueError as error:
        raise _CommandError(str(error)) from None


def _reliability(args: argparse.Namespace, collector: Sink) -> Rendered:
    _campaign_scenarios(args)
    report = run_campaign(
        workload=args.workload, axis=args.axis, rates=args.rates,
        seed=args.seed, count=args.count, batch=args.batch,
        backend=args.backend, train_epochs=args.train_epochs,
        include_tiles=not args.no_tiles, collector=collector,
        workers=args.workers,
    )
    return report, campaign_summary(report)


def _sweep(args: argparse.Namespace, collector: Sink) -> Rendered:
    """Distributed deterministic sweep: (scenario × seed × backend) cells."""
    seeds = args.seeds or [args.seed]
    backends = (
        ("loop", "vectorized") if args.backend == "both" else (args.backend,)
    )
    scenarios = _campaign_scenarios(args)
    options = {
        "count": args.count, "batch": args.batch,
        "train_epochs": args.train_epochs, "include_tiles": not args.no_tiles,
    }
    cells = campaign_cells(
        args.workload, scenarios, seeds, backends, **options
    )
    trace_log = telemetry.TraceLog(proc="driver")
    trace = telemetry.TraceContext.root("sweep", trace_log)
    run = run_sweep(
        cells,
        workers=args.workers,
        cache=SweepCache(args.cache_dir) if args.cache_dir else None,
        collector=collector.scope("sweep") if collector else None,
        scope_for=lambda index, cell: (
            "cell[{name},seed={seed},backend={backend}]".format(**cell.spec)
        ),
        trace=trace if args.trace_out else None,
    )
    if args.trace_out:
        trace.finish({"cells": len(cells)})
        spans = trace_log.spans()
        _write_json(args.trace_out, telemetry.trace_chrome_document(spans))
    report = sweep_report(run, {
        "workload": args.workload, "axis": args.axis,
        "rates": [scenario.rate for scenario in scenarios],
        "seeds": seeds, "backends": list(backends), **options,
    })
    if args.stats_out:
        # Execution facts (worker count, cache hits) are deliberately
        # not part of the deterministic report document.
        _write_json(args.stats_out, run.stats)
    stats = run.stats
    text = sweep_summary(report) + (
        f"\n{stats['workers']} worker(s): {stats['cache_hits']} cached, "
        f"{stats['recomputed']} computed"
    )
    return report, text


def _infer(args: argparse.Namespace, collector: Sink) -> Rendered:
    job = api.InferenceJob(
        workload=args.workload, seed=args.seed, backend=args.backend,
        count=args.count, batch=args.batch,
    )
    result = api.run_job(job, collector=collector)
    return result.to_dict(), result.summary()


def _train(args: argparse.Namespace, collector: Sink) -> Rendered:
    job = api.TrainingJob(
        workload=args.workload, seed=args.seed, backend=args.backend,
        epochs=args.epochs, batch=args.batch,
        train_count=args.train_count, test_count=args.test_count,
    )
    result = api.run_job(job, collector=collector)
    return result.to_dict(), result.summary()


#: Every row by subcommand name, with its document's validator.
_ROWS: Dict[str, Tuple[Row, Optional[Callable[[Any], Any]]]] = {
    "table1": (_table1, api.validate_table1_report),
    "fig4": (_fig4, None),
    "fig5": (_fig5, None),
    "fig9": (_fig9, api.validate_gan_scheme_report),
    "summary": (_summary, None),
    "trace": (_trace, None),
    "sensitivity": (_sensitivity, None),
    "area": (_area, None),
    "reliability": (_reliability, api.validate_reliability_report),
    "sweep": (_sweep, validate_sweep_report),
    "infer": (_infer, None),
    "train": (_train, None),
}


def _compute(args: argparse.Namespace, collector: Sink) -> Rendered:
    """Run the row ``args.command`` names and validate its document."""
    row, validate = _ROWS[args.command]
    document, text = row(args, collector)
    if validate is not None:
        validate(document)
    return document, text


def _cmd_row(args: argparse.Namespace) -> int:
    """Every row subcommand: compute, validate, emit."""
    return _emit(args, *_compute(args, None))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant job server (or its self-checking smoke)."""
    from repro.serve.server import ServerConfig, running_server

    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_coalesce=args.max_coalesce, event_log=args.event_log,
    )
    if args.smoke is not None:
        from repro.serve.smoke import run_smoke

        try:
            document, text = run_smoke(config, args.smoke, args.seed)
        except ConnectionError as error:
            return _fail(f"serve: {error}", 1)
        _emit(args, document, text)
        return 0 if document["ok"] else 1
    with running_server(config) as (_, (host, port)):
        print(f"repro serve listening on http://{host}:{port} "
              "(POST /v1/jobs; Ctrl-C to stop)")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live per-tenant throughput/latency table over ``/v1/stats``."""
    from repro.serve import client as serve_client

    client = serve_client.ServeClient(args.host, args.port)
    previous: Optional[dict] = None
    for iteration in range(args.count):
        if iteration:
            time.sleep(args.interval)
        try:
            stats = client.stats()
        except (OSError, serve_client.ServeError) as error:
            return _fail(f"top: cannot reach server: {error}", 1)
        rows = serve_client.tenant_rows(
            stats, previous, args.interval if iteration else 0.0
        )
        document = {
            "queue_depth": stats.get("queue_depth", 0),
            "cache": stats.get("cache", {}), "tenants": rows,
        }
        _emit(args, document, serve_client.render_top(stats, rows))
        previous = stats
    return 0


def _parse_wrapped(
    args: argparse.Namespace, wrapper: str
) -> Tuple[Optional[List[str]], Optional[argparse.Namespace], int]:
    """Parse the row a wrapper runs: ``(command, inner_args, code)``.

    On a usage error the first two are ``None`` and ``code`` is the exit
    code; the row's output paths are checked here too.
    """
    command = list(args.wrapped)
    if command[:1] == ["--"]:
        command = command[1:]
    if not command:
        return None, None, _fail(f"{wrapper}: name a subcommand to wrap, "
                                 f"e.g. 'repro {wrapper} infer mlp --json'")
    if command[0] not in _ROWS:
        return None, None, _fail(f"{wrapper}: cannot wrap {command[0]!r}")
    try:
        inner = build_parser().parse_args(command)
        _check_outputs(inner)
    except SystemExit:
        return None, None, 2
    except _CommandError as error:
        return None, None, _refuse(inner, error)
    return command, inner, 0


def _run_wrapped(
    command: List[str], inner: argparse.Namespace
) -> Tuple[telemetry.Collector, int, float, Optional[str]]:
    """Run a parsed row under a fresh collector, in one command span.

    Returns ``(collector, exit_code, wall_time_s, text)``; a refused
    row prints its error line and gives ``text`` ``None``.
    """
    collector = telemetry.Collector()
    start = time.perf_counter()
    exit_code, text = 0, None
    with collector.span(f"command[{command[0]}]"):
        try:
            _, text = _compute(inner, collector)
        except _CommandError as error:
            exit_code = _refuse(inner, error)
    return collector, exit_code, time.perf_counter() - start, text


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a row under a telemetry collector."""
    command, inner, code = _parse_wrapped(args, "profile")
    if command is None or inner is None:
        return code
    collector, exit_code, wall_time_s, text = _run_wrapped(command, inner)
    spans = collector.spans()
    _write_json(args.trace_out, telemetry.trace_chrome_document(spans))
    document = telemetry.profile_report(
        collector, command, exit_code, wall_time_s, chrome_trace=args.trace_out
    )
    telemetry.validate_profile_report(document)
    args.json = args.json or inner.json
    summary = telemetry.render_profile_report(document)
    _emit(args, document, summary if text is None else f"{text}\n{summary}")
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    """Derived-metrics analysis of a profile JSON or a fresh run."""
    if args.profile_path:
        if [word for word in args.wrapped if word != "--"]:
            return _fail("report: pass either --profile or a subcommand "
                         "to run, not both")
        try:
            with open(args.profile_path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            return _fail(f"report: cannot read profile: {error}")
        try:
            telemetry.validate_profile_report(document)
        except ValueError as error:
            return _fail(f"report: {error} — regenerate {args.profile_path}"
                         " with 'repro profile ... --json'")
        counters = document["counters"]
        source = args.profile_path
        exit_code = 0
    else:
        command, inner, code = _parse_wrapped(args, "report")
        if command is None or inner is None:
            return code
        collector, exit_code, _, _ = _run_wrapped(command, inner)
        counters = collector.counters()
        source = "repro " + " ".join(command)
        args.json = args.json or inner.json
    if args.energy:
        report = telemetry.attribute_energy(
            counters, event_costs(DEFAULT_TECH), source_name=source
        )
        telemetry.validate_energy_report(report)
        text = telemetry.render_energy_report(report)
    else:
        report = telemetry.analyze_counters(counters, source_name=source)
        telemetry.validate_analysis_report(report)
        text = telemetry.render_analysis_report(report)
    emitted = _emit(args, report, text)
    return exit_code or emitted


def _cmd_check(args: argparse.Namespace) -> int:
    """The determinism & contract linter (``repro.checks``)."""
    from repro import checks

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    config = checks.CheckConfig(select=select)
    try:
        config.rules()  # rejects unknown --select ids in either mode
        if not args.list_rules:
            findings = checks.check_paths(
                [Path(p) for p in args.paths] or None, config=config
            )
    except (ValueError, FileNotFoundError) as error:
        return _fail(f"check: {error}")
    if args.list_rules:
        width = max(len(rule_id) for rule_id in checks.RULES)
        for rule_id, (summary, allow) in checks.rule_table().items():
            if select is not None and rule_id not in select:
                continue
            suffix = f"  [allowed: {', '.join(allow)}]" if allow else ""
            print(f"{rule_id:<{width}s}  {summary}{suffix}")
        return 0
    if args.format == "sarif":
        # Raw SARIF 2.1.0: the log must not gain a schema_version key.
        checked = select if select is not None else sorted(checks.RULES)
        document = checks.sarif_document(findings, rule_ids=checked)
        checks.validate_sarif_document(document)
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        args.json = args.json or args.format == "json"
        roots = args.paths or [str(checks.default_root())]
        _emit(
            args,
            checks.check_report(findings, roots, select),
            checks.render_findings(
                findings, select if select is not None else checks.RULES
            ),
        )
    return 1 if findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified benchmark runner with baseline regression gating."""
    from repro import bench as bench_mod

    try:
        if args.list_benches:
            specs = bench_mod.discover(args.bench_dir)
            width = max((len(spec.name) for spec in specs), default=0)
            for spec in specs:
                print(f"{spec.name:<{width}s}  suite={spec.suite}")
            return 0
        run = bench_mod.run_suite(
            suite=args.suite, name_filter=args.filter, workers=args.workers,
            bench_dir=args.bench_dir, baseline_dir=args.baseline_dir,
            trajectory_path=args.trajectory,
            update_baselines=args.update_baselines,
        )
    except FileNotFoundError as error:
        return _fail(f"bench: {error}")
    _emit(args, run.to_dict(), run.summary())
    return run.exit_code


def _add_logging_flags(parser: argparse.ArgumentParser, **kwargs) -> None:
    """Attach the global logging flags to ``parser``.

    The main parser has real defaults; the shared subcommand parent
    passes ``default=argparse.SUPPRESS``, or a subparser's default
    would overwrite the value of ``repro -v infer``.
    """
    parser.add_argument("--log-level",
                        choices=("critical", "error", "warning", "info",
                                 "debug"),
                        help="logging threshold for the repro.* loggers "
                        "(default warning; overrides -v)", **kwargs)
    parser.add_argument("-v", "--verbose", action="count",
                        help="increase log verbosity (-v info, -vv debug)",
                        **kwargs)


def _comma_list(kind: Callable[[str], Any], noun: str) -> Callable:
    """An argparse ``type=`` for a non-empty comma-separated list."""

    def parse(text: str) -> List[Any]:
        try:
            values = [kind(item) for item in text.split(",") if item]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be comma-separated {noun}, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError("must name at least one value")
        return values

    return parse


def _number(kind: Callable[[str], Any], relation: str) -> Callable:
    """An argparse ``type=`` for a ``kind`` number ``> 0`` or ``>= 0``.

    The check is written so that it fails on NaN, which compares false
    with everything.
    """
    holds = {">": operator.gt, ">=": operator.ge}[relation]
    noun = "an integer" if kind is int else "a number"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {noun}, got {text!r}"
            ) from None
        if not holds(value, 0):
            raise argparse.ArgumentTypeError(
                f"must be {relation} 0, got {value}"
            )
        return value

    return parse


#: A count, size or depth.
_POSITIVE = _number(int, ">")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""

    def parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    shared = parent()
    shared.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON document "
                        "instead of text")
    _add_logging_flags(shared, default=argparse.SUPPRESS)

    batch = parent()
    batch.add_argument("--batch", type=_POSITIVE, default=32,
                       help="batch size (default 32)")

    job = parent(batch)
    job.add_argument("workload", nargs="?", default="mlp",
                     choices=api.Simulator.WORKLOADS)
    job.add_argument("--seed", type=int, default=0,
                     help="master RNG seed (default 0)")

    campaign = parent()
    add = campaign.add_argument
    add("--axis", choices=tuple(sorted(AXES)), default="stuck")
    add("--rates", type=_comma_list(float, "numbers"),
        help="comma-separated sweep points (default: per-axis preset)")
    add("--count", type=_POSITIVE, default=32)
    add("--train-epochs", type=_number(int, ">="), default=5)
    add("--no-tiles", action="store_true",
        help="omit the per-tile stuck-cell census from layer records")
    add("--backend", choices=("loop", "vectorized", "both"),
        default="vectorized",
        help="'both' runs every scenario on both engines (reliability "
        "also checks that their fault outcomes match)")
    add("--workers", type=_POSITIVE, default=1,
        help="shard the work over N processes (default 1: inline; "
        "byte-identical report for any N)")

    wrapper = parent()
    wrapper.add_argument("wrapped", nargs=argparse.REMAINDER,
                         help="the subcommand to run, with its own "
                         "arguments")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'ReRAM-based Accelerator "
        "for Deep Learning' (DATE 2018).",
    )
    _add_logging_flags(parser)
    parser.set_defaults(log_level=None, verbose=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, *parents: argparse.ArgumentParser,
                func: Callable[[argparse.Namespace], int] = _cmd_row,
                **kw: Any) -> Callable[..., Any]:
        """Register subcommand ``name``; return its ``add_argument``."""
        subparser = sub.add_parser(name, parents=[shared, *parents], **kw)
        subparser.set_defaults(func=func)
        return subparser.add_argument

    command("table1", batch, help="Table I: both accelerators")
    command("fig4", help="Fig. 4 mapping sweep")
    add = command("fig5", help="Fig. 5 pipeline cycles")
    add("--layers", type=_POSITIVE, default=8)
    command("fig9", batch, help="Fig. 9 GAN pipeline schemes")
    add = command("summary", help="workload inventory")
    add("workload", choices=_WORKLOADS)

    add = command("sensitivity", help="tech-parameter tornado for Table I")
    add("--metric", choices=("speedup", "energy"), default="speedup")
    add("--workers", type=_POSITIVE, default=1,
        help="shard the tornado fields over N processes")

    add = command("area", batch, help="area/power budget of a workload")
    add("workload", choices=_WORKLOADS)
    add("--budget", type=_POSITIVE, default=262144)

    add = command("trace", help="ASCII Gantt of a schedule")
    add("--batch", type=_POSITIVE, default=4, help="batch size (default 4)")
    add("--layers", type=_POSITIVE, default=3)
    add("--gan", action="store_true")
    add("--scheme", choices=SCHEMES, default="sp_cs")

    add = command("infer", job, help="run synthetic inference through the "
                  "crossbar simulator")
    add("--backend", choices=("loop", "vectorized"))
    add("--count", type=_POSITIVE, default=64)

    command("reliability", job, campaign, help="deterministic "
            "fault-injection campaign over a workload")

    add = command(
        "sweep", job, campaign,
        help="distributed deterministic sweep over (scenario x seed x "
        "backend) cells",
        description="Shard fault-injection scenario cells over a process "
        "pool (repro.sweep).  The merged sweep_report is byte-identical "
        "for any --workers value; with --cache-dir, completed cells "
        "replay from disk so interrupted sweeps resume without "
        "recomputation.",
    )
    add("--seeds", type=_comma_list(int, "integers"),
        help="comma-separated master seeds (default: --seed)")
    add("--cache-dir", type=Path,
        help="on-disk cell cache keyed by (config_hash, seed); "
        "enables resume-after-interruption")
    add("--stats-out", type=Path,
        help="write execution stats (workers, cache hits) to this "
        "file; they are kept out of the deterministic report")
    add("--trace-out", type=Path,
        help="write a stitched Chrome-trace of the sweep (logical "
        "clocks; byte-identical for any --workers value)")

    add = command("train", job, help="crossbar-in-the-loop training on a "
                  "synthetic set")
    add("--backend", choices=("loop", "vectorized"))
    add("--epochs", type=_POSITIVE, default=1)
    add("--train-count", type=_POSITIVE, default=256)
    add("--test-count", type=_POSITIVE, default=64)

    add = command(
        "serve", func=_cmd_serve,
        help="async multi-tenant job server over the simulator",
        description="Serve simulation-as-a-service: accept schema-versioned "
        "JSON job specs (inference/training/reliability) from concurrent "
        "tenants on a tiny HTTP API, coalesce compatible inference "
        "requests into single batched crossbar evaluations (bit-identical "
        "to running them alone), and cache programmed-crossbar state by "
        "(weights_hash, device_config_hash) so repeat tenants skip "
        "reprogramming.  --smoke N runs an in-process server+client "
        "self-check: the same N-job mix three times, asserting every "
        "report validates, results are deterministic, and the cache was "
        "hit.",
    )
    add("--host", default="127.0.0.1", help="bind address")
    add("--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral, printed at startup)")
    add("--workers", type=_POSITIVE, default=4,
        help="worker threads executing jobs (default 4)")
    add("--max-coalesce", type=_POSITIVE, default=8,
        help="max inference jobs per coalesced batch (default 8)")
    add("--smoke", type=_POSITIVE, metavar="N",
        help="run the N-job self-check instead of serving forever")
    add("--seed", type=int, default=0,
        help="master RNG seed of the --smoke job mix (default 0)")
    add("--event-log", type=Path, metavar="FILE",
        help="append one JSONL event per job lifecycle transition "
        "(submitted/dispatched/done/error) to FILE")

    add = command(
        "top", func=_cmd_top,
        help="live per-tenant throughput/latency table from a running "
        "server",
        description="Poll a job server's /v1/stats and render per-tenant "
        "submitted/done counts, throughput, e2e latency percentiles "
        "(p50/p95/p99 from the server's histograms), and the "
        "programmed-state cache hit ratio.",
    )
    add("--host", default="127.0.0.1", help="server address")
    add("--port", type=int, required=True, help="server port")
    add("--interval", type=_number(float, ">="), default=2.0,
        help="seconds between polls (default 2)")
    add("--count", type=_POSITIVE, default=1,
        help="how many frames to render before exiting (default 1)")

    add = command(
        "profile", wrapper, func=_cmd_profile,
        help="run any subcommand under a telemetry collector",
        description="Wrap another subcommand in a telemetry collector and "
        "report hierarchical counters, timing spans, and a Chrome-trace "
        "file.  The counter section is deterministic (byte-identical "
        "across same-seed runs and across engine backends); spans are "
        "wall-clock.",
    )
    add("--trace-out", default="profile_trace.json",
        help="Chrome-trace output path (default profile_trace.json)")

    add = command(
        "report", wrapper, func=_cmd_report,
        help="derived metrics (utilization, bubbles, ADC/MAC) from "
        "telemetry",
        description="Turn a telemetry counter tree into derived metrics: "
        "per-stage pipeline utilization and bubble cycles, per-tile "
        "crossbar occupancy, and ADC conversions per MAC.  Reads a saved "
        "`repro profile --json` document (--profile) or runs a "
        "subcommand fresh and analyses its counters.",
    )
    add("--profile", dest="profile_path", metavar="FILE",
        help="analyse a saved 'repro profile --json' document instead "
        "of running a subcommand")
    add("--energy", action="store_true",
        help="attribute energy instead: price the event counters "
        "through the technology cost table and render the per-group "
        "energy/power breakdown")

    add = command(
        "bench", func=_cmd_bench,
        help="run the benchmark suite and gate on committed baselines",
        description="Discover benchmarks/bench_*.py through the repro.bench "
        "registry, execute the selected suite, append the run to "
        "BENCH_trajectory.json, and compare deterministic metrics against "
        "benchmarks/baselines/*.json.  Exits non-zero on any bench "
        "failure or out-of-tolerance metric.",
    )
    add("--suite", choices=("quick", "full"), default="quick",
        help="suite tier to run (default quick; full includes slow "
        "benches)")
    add("--filter", metavar="GLOB",
        help="fnmatch glob over bench names, e.g. 'fig*'")
    add("--workers", type=_POSITIVE, default=1,
        help="shard benches over N processes (deterministic metrics "
        "are unaffected; wall times then share the host)")
    add("--bench-dir", type=Path,
        help="benchmark directory (default: ./benchmarks or the "
        "checkout's)")
    add("--baseline-dir", type=Path,
        help="baseline directory (default: <bench-dir>/baselines)")
    add("--trajectory", type=Path,
        help="run-history file (default: <bench-dir>/../"
        "BENCH_trajectory.json)")
    add("--update-baselines", action="store_true",
        help="rewrite the baselines from this run instead of comparing")
    add("--list", dest="list_benches", action="store_true",
        help="list the registered benches and exit")

    p_check = sub.add_parser(
        "check",
        help="AST-based determinism & contract linter over the package",
        description="Run the repro.checks rules (see --list-rules) over the "
        "installed package or the given paths.  Exits 1 on findings, 0 "
        "when clean.  Suppress one line with '# repro: noqa[RULE]'.",
    )
    p_check.set_defaults(func=_cmd_check)
    add = p_check.add_argument
    add("paths", nargs="*",
        help="files or directories to check (default: the installed "
        "repro package)")
    add("--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default text; sarif emits a SARIF 2.1.0 "
        "log for GitHub code scanning)")
    add("--json", action="store_true", help="shorthand for --format json")
    add("--select", metavar="RULES",
        help="comma-separated rule ids to run, e.g. RNG001,DET001 "
        "(default: all)")
    add("--list-rules", action="store_true",
        help="list the registered rules and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level or args.verbose:
        _configure_logging(args.log_level, args.verbose)
    try:
        _check_outputs(args)
        code = args.func(args)
        sys.stdout.flush()
    except _CommandError as error:
        return _refuse(args, error)
    except BrokenPipeError:
        # The reader closed stdout early (``repro table1 | head -3``).
        # Point stdout at /dev/null so the interpreter's exit-time
        # flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
