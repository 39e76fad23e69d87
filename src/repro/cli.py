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

Every subcommand except ``check`` accepts the shared ``--seed`` /
``--batch`` options, and every one accepts a ``--json`` flag that
switches the output to a machine-readable document.  All result data
comes from :mod:`repro.api` — the CLI is a thin presentation layer
over the same facade library users import.

``repro profile <subcommand> ...`` wraps any other subcommand in a
:class:`repro.telemetry.Collector` and reports hierarchical counters,
timing spans, and a Chrome-trace file on top of the wrapped workload.
``repro report`` renders the *derived* metrics — stage utilization,
bubbles, ADC conversions per MAC — from a saved profile JSON or a
freshly run subcommand.  ``repro bench`` drives the whole benchmark
suite through one registry and gates on the committed baselines.

The global ``--log-level`` / ``-v`` flags wire Python ``logging``
through the stack (component-prefixed ``repro.*`` loggers); the
default is WARNING, so unflagged output is byte-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro import api
from repro.core.gan_pipeline import SCHEMES
from repro.reliability import (
    AXES,
    campaign_summary,
    run_campaign,
    scenarios_for,
)
from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    TraceContext,
    TraceLog,
    analyze_counters,
    profile_report,
    render_analysis_report,
    trace_chrome_document,
    validate_analysis_report,
    validate_profile_report,
)
from repro.utils.io import write_json_atomic
from repro.utils.logging import configure as _configure_logging
from repro.workloads import (
    alexnet_spec,
    mnist_cnn_spec,
    regan_suite,
    vggnet_spec,
)

#: Subcommands that may not be wrapped by profile/report (they are
#: wrappers, whole-suite drivers, long-lived servers, or — like the
#: linter — not simulations at all).
_UNWRAPPABLE = ("profile", "report", "bench", "check", "serve", "top")

_WORKLOADS = {
    "mnist": mnist_cnn_spec,
    "alexnet": alexnet_spec,
    "vggnet": vggnet_spec,
}


def _emit(args: argparse.Namespace, document: Any, text: str) -> int:
    """Print ``document`` as JSON or the human ``text`` rendering.

    Every JSON document leaving the CLI carries ``schema_version``:
    dictionaries that lack the field gain it, bare lists are wrapped as
    ``{"schema_version": ..., "rows": [...]}``.
    """
    if args.json:
        if not isinstance(document, dict):
            document = {"schema_version": SCHEMA_VERSION, "rows": document}
        elif "schema_version" not in document:
            document = {"schema_version": SCHEMA_VERSION, **document}
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(text)
    return 0


def _fail(message: str, code: int = 2) -> int:
    """Report a failure on stderr; return the exit ``code``."""
    print(message, file=sys.stderr)
    return code


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = api.Simulator.table1(batch=args.batch)
    document = {name: row.to_dict() for name, row in rows.items()}
    text = "\n\n".join(row.summary() for row in rows.values())
    return _emit(args, document, text)


def _cmd_fig4(args: argparse.Namespace) -> int:
    sweep = api.mapping_sweep()
    lines = [
        "Fig. 4 mapping trade-off (114x114x128 -> 112x112x256, 3x3):",
        f"{'X':>8s} {'passes/img':>12s} {'arrays':>10s}",
    ]
    for row in sweep["rows"]:
        lines.append(
            f"{row['duplication']:>8d} {row['passes_per_image']:>12d} "
            f"{row['arrays']:>10d}"
        )
    return _emit(args, sweep, "\n".join(lines))


def _cmd_fig5(args: argparse.Namespace) -> int:
    sweep = api.pipeline_sweep(layers=args.layers)
    lines = [
        f"Fig. 5 pipeline, L = {args.layers}:",
        f"{'B':>6s} {'sequential':>12s} {'pipelined':>12s} {'speedup':>9s}",
    ]
    for row in sweep["rows"]:
        lines.append(
            f"{row['batch']:>6d} {row['sequential_cycles']:>12d} "
            f"{row['pipelined_cycles']:>12d} {row['speedup']:>8.2f}x"
        )
    return _emit(args, sweep, "\n".join(lines))


def _cmd_fig9(args: argparse.Namespace) -> int:
    report = api.gan_scheme_report(batch=args.batch)
    depths = {
        name: (generator.depth, discriminator.depth)
        for name, (generator, discriminator) in regan_suite().items()
    }
    lines = []
    for dataset, rows in report["datasets"].items():
        l_g, l_d = depths[dataset]
        lines.append(f"{dataset} (L_G={l_g}, L_D={l_d}, B={args.batch}):")
        for row in rows:
            lines.append(
                f"  {row['scheme']:<12s} {row['cycles']:>6d} cycles "
                f"{row['speedup']:>7.2f}x"
            )
    return _emit(args, report, "\n".join(lines))


def _workload_spec(args: argparse.Namespace) -> Any:
    """The ``summary``/``area`` workload spec, or ``None`` if unknown."""
    if args.workload in _WORKLOADS:
        return _WORKLOADS[args.workload]()
    _fail(
        f"unknown workload {args.workload!r}; pick from "
        f"{sorted(_WORKLOADS)}"
    )
    return None


def _cmd_summary(args: argparse.Namespace) -> int:
    spec = _workload_spec(args)
    if spec is None:
        return 2
    document = {
        "name": spec.name,
        "depth": spec.depth,
        "layers": len(spec.layers),
        "total_macs": spec.total_macs,
        "total_weights": spec.total_weights,
        "total_activations": spec.total_activations,
    }
    return _emit(args, document, spec.summary())


def _cmd_trace(args: argparse.Namespace) -> int:
    document = api.schedule_trace(
        layers=args.layers,
        batch=args.batch,
        gan=args.gan,
        scheme=args.scheme,
        collector=getattr(args, "collector", None),
    )
    if args.gan:
        header = (
            f"GAN iteration, L_D=L_G={args.layers}, B={args.batch}, "
            f"scheme={args.scheme} -> {document['makespan']} cycles"
        )
    else:
        header = (
            f"training pipeline, L={args.layers}, B={args.batch}, "
            f"2 batches -> {document['makespan']} cycles"
        )
    return _emit(args, document, header + "\n" + document["gantt"])


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.arch.sensitivity import tech_sensitivity

    rows = tech_sensitivity(
        args.metric,
        workers=args.workers,
        collector=getattr(args, "collector", None),
    )
    keys = ("field", "metric_low", "metric_nominal", "metric_high", "swing")
    document = [{key: getattr(row, key) for key in keys} for row in rows]
    lines = [
        f"PipeLayer {args.metric} sensitivity (0.5x .. 2x per field):",
        f"{'parameter':<28s}{'0.5x':>10s}{'nominal':>10s}{'2x':>10s}"
        f"{'swing':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.field:<28s}{row.metric_low:>10.2f}"
            f"{row.metric_nominal:>10.2f}{row.metric_high:>10.2f}"
            f"{row.swing:>8.2f}"
        )
    return _emit(args, document, "\n".join(lines))


def _cmd_area(args: argparse.Namespace) -> int:
    from repro.arch.report import pipelayer_report
    from repro.core.pipelayer import PipeLayerModel

    spec = _workload_spec(args)
    if spec is None:
        return 2
    model = PipeLayerModel(spec, array_budget=args.budget)
    report = pipelayer_report(model, batch=args.batch)
    keys = (
        "name", "array_count", "compute_area_mm2", "memory_area_mm2",
        "total_area_mm2", "static_power_w", "dynamic_power_w",
        "total_power_w", "area_vs_gpu",
    )
    document = {key: getattr(report, key) for key in keys}
    return _emit(args, document, report.summary())


def _campaign_scenarios(args: argparse.Namespace) -> Any:
    """The ``--axis``/``--rates`` scenarios, or ``None`` if out of range."""
    try:
        return scenarios_for(args.axis, args.rates)
    except ValueError as error:
        _fail(f"repro {args.command}: error: {error}")
        return None


def _cmd_reliability(args: argparse.Namespace) -> int:
    if _campaign_scenarios(args) is None:
        return 2
    report = run_campaign(
        workload=args.workload,
        axis=args.axis,
        rates=args.rates,
        seed=args.seed,
        count=args.count,
        batch=args.batch,
        backend=args.backend,
        train_epochs=args.train_epochs,
        include_tiles=not args.no_tiles,
        collector=getattr(args, "collector", None),
        workers=args.workers,
    )
    return _emit(args, report, campaign_summary(report))


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Distributed deterministic sweep: (scenario × seed × backend) cells."""
    from repro.reliability.campaign import campaign_cells
    from repro.sweep import SweepCache, run_sweep, sweep_report, sweep_summary

    seeds = args.seeds or [args.seed]
    backends = (
        ("loop", "vectorized") if args.backend == "both" else (args.backend,)
    )
    scenarios = _campaign_scenarios(args)
    if scenarios is None:
        return 2
    cells = campaign_cells(
        args.workload,
        scenarios,
        seeds,
        backends,
        count=args.count,
        batch=args.batch,
        train_epochs=args.train_epochs,
        include_tiles=not args.no_tiles,
    )

    trace_log = TraceLog(proc="driver") if args.trace_out else None
    trace_root = TraceContext.root("sweep", trace_log) if trace_log else None
    collector = getattr(args, "collector", None)
    run = run_sweep(
        cells,
        workers=args.workers,
        cache=SweepCache(args.cache_dir) if args.cache_dir else None,
        collector=collector.scope("sweep") if collector else None,
        scope_for=lambda index, cell: (
            "cell[{name},seed={seed},backend={backend}]".format(**cell.spec)
        ),
        trace=trace_root,
    )
    if trace_root is not None and trace_log is not None:
        trace_root.finish({"cells": len(cells)})
        write_json_atomic(
            Path(args.trace_out), trace_chrome_document(trace_log.spans())
        )
    report = sweep_report(
        run,
        {
            "workload": args.workload,
            "axis": args.axis,
            "rates": [scenario.rate for scenario in scenarios],
            "seeds": seeds,
            "backends": list(backends),
            "count": args.count,
            "batch": args.batch,
            "train_epochs": args.train_epochs,
            "include_tiles": not args.no_tiles,
        },
    )
    if args.stats_out:
        # Execution facts (worker count, cache hits) are deliberately
        # not part of the deterministic report document.
        write_json_atomic(Path(args.stats_out), run.stats)
    stats = run.stats
    text = sweep_summary(report) + (
        f"\n{stats['workers']} worker(s): {stats['cache_hits']} cached, "
        f"{stats['recomputed']} computed"
    )
    return _emit(args, report, text)


def _run_job(args: argparse.Namespace, job: "api.JobSpec") -> int:
    """Run an ``infer``/``train`` job spec through :func:`api.run_job`."""
    result = api.run_job(job, collector=getattr(args, "collector", None))
    return _emit(args, result.to_dict(), result.summary())


def _cmd_infer(args: argparse.Namespace) -> int:
    job = api.InferenceJob(
        workload=args.workload,
        seed=args.seed,
        backend=args.backend,
        count=args.count,
        batch=args.batch,
    )
    return _run_job(args, job)


def _cmd_train(args: argparse.Namespace) -> int:
    job = api.TrainingJob(
        workload=args.workload,
        seed=args.seed,
        backend=args.backend,
        epochs=args.epochs,
        batch=args.batch,
        train_count=args.train_count,
        test_count=args.test_count,
    )
    return _run_job(args, job)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant job server (or its self-checking smoke)."""
    from repro.serve.server import ServerConfig, running_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_coalesce=args.max_coalesce,
        event_log=args.event_log,
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
        print(
            f"repro serve listening on http://{host}:{port} "
            "(POST /v1/jobs; Ctrl-C to stop)"
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


def _render_top(stats: dict, rows: List[dict]) -> str:
    """One ``repro top`` frame as plain text."""
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    hit_ratio = cache.get("hits", 0) / lookups if lookups else 0.0
    lines = [
        f"queue depth {stats.get('queue_depth', 0)}; cache "
        f"{cache.get('hits', 0)}/{lookups} hits "
        f"({hit_ratio:.0%}), {cache.get('entries', 0)} resident",
        f"{'tenant':<12s}{'subm':>6s}{'done':>6s}{'jobs/s':>8s}"
        f"{'p50(s)':>10s}{'p95(s)':>10s}{'p99(s)':>10s}"
        f"{'energy(J)':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row['tenant']:<12s}{row['submitted']:>6d}"
            f"{row['done']:>6d}{row['throughput_jobs_s']:>8.2f}"
            f"{row['p50']:>10.4f}{row['p95']:>10.4f}{row['p99']:>10.4f}"
            f"{row['energy_joules']:>11.3e}"
        )
    if len(lines) == 2:
        lines.append("(no tenant activity yet)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live per-tenant throughput/latency table over ``/v1/stats``."""
    from repro.serve.client import ServeClient, ServeError, tenant_rows

    client = ServeClient(args.host, args.port)
    previous: Optional[dict] = None
    for iteration in range(args.count):
        if iteration:
            time.sleep(args.interval)
        try:
            stats = client.stats()
        except (OSError, ServeError) as error:
            return _fail(f"top: cannot reach server: {error}", 1)
        rows = tenant_rows(
            stats, previous, args.interval if iteration else 0.0
        )
        document = {
            "queue_depth": stats.get("queue_depth", 0),
            "cache": stats.get("cache", {}),
            "tenants": rows,
        }
        _emit(args, document, _render_top(stats, rows))
        previous = stats
    return 0


def _profile_summary(document: dict) -> str:
    """Human rendering of a profile report (text mode)."""
    counters = document["counters"]
    lines = [
        f"profiled `repro {' '.join(document['command'])}` in "
        f"{document['wall_time_s']:.3f} s (exit {document['exit_code']}): "
        f"{len(counters)} counters, {len(document['spans'])} spans"
        + (
            f" ({document['spans_dropped']} dropped)"
            if document["spans_dropped"]
            else ""
        ),
    ]
    top = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:10]
    width = max((len(path) for path, _ in top), default=0)
    for path, value in top:
        lines.append(f"  {path:<{width}s}  {value}")
    if len(counters) > len(top):
        lines.append(f"  ... {len(counters) - len(top)} more")
    if "chrome_trace" in document:
        lines.append(
            f"chrome trace written to {document['chrome_trace']} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    return "\n".join(lines)


def _parse_wrapped(
    args: argparse.Namespace, wrapper: str
) -> Tuple[Optional[List[str]], Optional[argparse.Namespace], int]:
    """Parse the remainder arguments of a wrapper subcommand.

    Returns ``(command, inner_namespace, exit_code)``; on usage errors
    ``command``/``inner_namespace`` are ``None`` and ``exit_code`` is
    the code to return.
    """
    command = list(args.wrapped)
    if command[:1] == ["--"]:
        command = command[1:]
    if not command:
        return None, None, _fail(
            f"{wrapper}: name a subcommand to wrap, e.g. "
            f"'repro {wrapper} infer mlp --json'"
        )
    if command[0] in _UNWRAPPABLE:
        return None, None, _fail(f"{wrapper}: cannot wrap {command[0]!r}")
    try:
        inner = build_parser().parse_args(command)
    except SystemExit:
        return None, None, 2
    return command, inner, 0


def _run_wrapped(
    command: List[str], inner: argparse.Namespace
) -> Tuple[Collector, int, float, str]:
    """Run a parsed subcommand under a fresh telemetry collector.

    The wrapped command prints its own report; stdout is captured so
    the wrapper's document can be the only thing on stdout.  Returns
    ``(collector, exit_code, wall_time_s, captured_stdout)``.
    """
    collector = Collector()
    inner.collector = collector
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer), collector.span(f"command[{command[0]}]"):
        exit_code = inner.func(inner)
    wall_time_s = time.perf_counter() - start
    return collector, exit_code, wall_time_s, buffer.getvalue()


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run any other subcommand under a telemetry collector."""
    command, inner, code = _parse_wrapped(args, "profile")
    if command is None:
        return code
    collector, exit_code, wall_time_s, wrapped_output = _run_wrapped(
        command, inner
    )
    write_json_atomic(
        Path(args.trace_out), trace_chrome_document(collector.spans())
    )
    document = profile_report(
        collector, command, exit_code, wall_time_s, chrome_trace=args.trace_out
    )
    validate_profile_report(document)
    args.json = args.json or getattr(inner, "json", False)
    _emit(args, document, wrapped_output + _profile_summary(document))
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    """Derived-metrics analysis of a profile JSON or a fresh run."""
    if args.profile_path:
        if [word for word in args.wrapped if word != "--"]:
            return _fail(
                "report: pass either --profile or a subcommand to run, "
                "not both"
            )
        try:
            with open(args.profile_path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            return _fail(f"report: cannot read profile: {error}")
        try:
            validate_profile_report(document)
        except ValueError as error:
            return _fail(
                f"report: {error} — regenerate {args.profile_path} with "
                "'repro profile ... --json'"
            )
        counters = document["counters"]
        source = args.profile_path
        exit_code = 0
    else:
        command, inner, code = _parse_wrapped(args, "report")
        if command is None:
            return code
        collector, exit_code, _, _ = _run_wrapped(command, inner)
        counters = collector.counters()
        source = "repro " + " ".join(command)
        args.json = args.json or getattr(inner, "json", False)
    if args.energy:
        from repro.arch.components import event_costs
        from repro.arch.params import DEFAULT_TECH
        from repro.telemetry import (
            attribute_energy,
            render_energy_report,
            validate_energy_report,
        )

        report = attribute_energy(
            counters, event_costs(DEFAULT_TECH), source_name=source
        )
        validate_energy_report(report)
        return _emit(args, report, render_energy_report(report))
    analysis = analyze_counters(counters, source_name=source)
    validate_analysis_report(analysis)
    return _emit(args, analysis, render_analysis_report(analysis))


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
        _emit(
            args,
            checks.check_report(
                findings,
                args.paths or [str(checks.default_root())],
                select,
            ),
            checks.render_findings(
                findings, select if select is not None else checks.RULES
            ),
        )
    return 1 if findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified benchmark runner with baseline regression gating."""
    from repro import bench as bench_mod

    if args.list_benches:
        try:
            specs = bench_mod.discover(args.bench_dir)
        except FileNotFoundError as error:
            return _fail(f"bench: {error}")
        width = max((len(spec.name) for spec in specs), default=0)
        for spec in specs:
            print(f"{spec.name:<{width}s}  suite={spec.suite}")
        return 0
    try:
        run = bench_mod.run_suite(
            suite=args.suite,
            name_filter=args.filter,
            workers=args.workers,
            bench_dir=args.bench_dir,
            baseline_dir=args.baseline_dir,
            trajectory_path=args.trajectory,
            update_baselines=args.update_baselines,
        )
    except FileNotFoundError as error:
        return _fail(f"bench: {error}")
    _emit(args, run.to_dict(), run.summary())
    return run.exit_code


def _add_logging_flags(parser: argparse.ArgumentParser, **kwargs) -> None:
    """Attach the global logging flags to ``parser``.

    The flags live on the main parser (with real defaults) AND on the
    shared subcommand parent with ``default=argparse.SUPPRESS`` — a
    subparser otherwise overwrites the main parser's value with its own
    default, which would discard ``repro -v infer``.
    """
    parser.add_argument(
        "--log-level",
        choices=("critical", "error", "warning", "info", "debug"),
        help="logging threshold for the repro.* loggers "
        "(default warning; overrides -v)",
        **kwargs,
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        help="increase log verbosity (-v info, -vv debug)",
        **kwargs,
    )


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


def _positive_int(text: str) -> int:
    """An argparse ``type=`` for a count, size or depth (``> 0``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """An argparse ``type=`` for a duration in seconds (``>= 0``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number, got {text!r}"
        ) from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--seed", type=int, default=0, help="master RNG seed (default 0)"
    )
    shared.add_argument(
        "--batch",
        type=_positive_int,
        default=32,
        help="batch size (default 32)",
    )
    shared.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON document instead of text",
    )
    _add_logging_flags(shared, default=argparse.SUPPRESS)

    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "workload",
        nargs="?",
        default="mlp",
        choices=api.Simulator.WORKLOADS,
    )

    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument(
        "--axis", choices=tuple(sorted(AXES)), default="stuck"
    )
    campaign.add_argument(
        "--rates",
        type=_comma_list(float, "numbers"),
        help="comma-separated sweep points (default: per-axis preset)",
    )
    campaign.add_argument("--count", type=_positive_int, default=32)
    campaign.add_argument("--train-epochs", type=int, default=5)
    campaign.add_argument(
        "--no-tiles",
        action="store_true",
        help="omit the per-tile stuck-cell census from layer records",
    )

    wrapper = argparse.ArgumentParser(add_help=False)
    wrapper.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="the subcommand to run, with its own arguments",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'ReRAM-based Accelerator "
        "for Deep Learning' (DATE 2018).",
    )
    _add_logging_flags(parser)
    parser.set_defaults(log_level=None, verbose=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        func: Callable[[argparse.Namespace], int],
        *parents: argparse.ArgumentParser,
        **kw: Any,
    ) -> argparse.ArgumentParser:
        """Register subcommand ``name`` running ``func``."""
        subparser = sub.add_parser(name, parents=list(parents), **kw)
        subparser.set_defaults(func=func)
        return subparser

    for name, func, summary in (
        ("table1", _cmd_table1, "Table I: both accelerators"),
        ("fig4", _cmd_fig4, "Fig. 4 mapping sweep"),
        ("fig5", _cmd_fig5, "Fig. 5 pipeline cycles"),
        ("fig9", _cmd_fig9, "Fig. 9 GAN pipeline schemes"),
    ):
        command(name, func, shared, help=summary)
    sub.choices["fig5"].add_argument(
        "--layers", type=_positive_int, default=8
    )

    p_summary = command(
        "summary", _cmd_summary, shared, help="workload inventory"
    )
    p_summary.add_argument("workload")

    p_sens = command(
        "sensitivity",
        _cmd_sensitivity,
        shared,
        help="tech-parameter tornado for Table I",
    )
    p_sens.add_argument(
        "--metric", choices=("speedup", "energy"), default="speedup"
    )
    p_sens.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard the tornado fields over N processes",
    )

    p_area = command(
        "area", _cmd_area, shared, help="area/power budget of a workload"
    )
    p_area.add_argument("workload")
    p_area.add_argument("--budget", type=_positive_int, default=262144)

    p_trace = command(
        "trace", _cmd_trace, shared, help="ASCII Gantt of a schedule"
    )
    p_trace.add_argument("--layers", type=_positive_int, default=3)
    p_trace.add_argument("--gan", action="store_true")
    p_trace.add_argument("--scheme", choices=SCHEMES, default="sp_cs")
    p_trace.set_defaults(batch=4)

    p_infer = command(
        "infer",
        _cmd_infer,
        shared,
        workload,
        help="run synthetic inference through the crossbar simulator",
    )
    p_infer.add_argument(
        "--backend", choices=("loop", "vectorized")
    )
    p_infer.add_argument("--count", type=_positive_int, default=64)

    p_reliability = command(
        "reliability",
        _cmd_reliability,
        shared,
        workload,
        campaign,
        help="deterministic fault-injection campaign over a workload",
    )
    p_reliability.add_argument(
        "--backend",
        choices=("loop", "vectorized", "both"),
        default="vectorized",
        help="'both' also verifies loop == vectorized fault outcomes",
    )
    p_reliability.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard scenarios over N processes (byte-identical report "
        "for any N)",
    )

    p_sweep = command(
        "sweep",
        _cmd_sweep,
        shared,
        workload,
        campaign,
        help="distributed deterministic sweep over (scenario x seed "
        "x backend) cells",
        description="Shard fault-injection scenario cells over a "
        "process pool (repro.sweep).  The merged sweep_report is "
        "byte-identical for any --workers value; with --cache-dir, "
        "completed cells replay from disk so interrupted sweeps "
        "resume without recomputation.",
    )
    p_sweep.add_argument(
        "--seeds",
        type=_comma_list(int, "integers"),
        help="comma-separated master seeds (default: --seed)",
    )
    p_sweep.add_argument(
        "--backend",
        choices=("loop", "vectorized", "both"),
        default="vectorized",
        help="'both' adds one cell per backend per scenario",
    )
    p_sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process count for the cell pool (default 1: inline)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        type=Path,
        help="on-disk cell cache keyed by (config_hash, seed); "
        "enables resume-after-interruption",
    )
    p_sweep.add_argument(
        "--stats-out",
        type=Path,
        help="write execution stats (workers, cache hits) to this "
        "file; they are kept out of the deterministic report",
    )
    p_sweep.add_argument(
        "--trace-out",
        type=Path,
        help="write a stitched Chrome-trace of the sweep (logical "
        "clocks; byte-identical for any --workers value)",
    )

    p_train = command(
        "train",
        _cmd_train,
        shared,
        workload,
        help="crossbar-in-the-loop training on a synthetic set",
    )
    p_train.add_argument(
        "--backend", choices=("loop", "vectorized")
    )
    p_train.add_argument("--epochs", type=_positive_int, default=1)
    p_train.add_argument("--train-count", type=_positive_int, default=256)
    p_train.add_argument("--test-count", type=_positive_int, default=64)

    p_serve = command(
        "serve",
        _cmd_serve,
        shared,
        help="async multi-tenant job server over the simulator",
        description="Serve simulation-as-a-service: accept "
        "schema-versioned JSON job specs (inference/training/"
        "reliability) from concurrent tenants on a tiny HTTP API, "
        "coalesce compatible inference requests into single batched "
        "crossbar evaluations (bit-identical to running them alone), "
        "and cache programmed-crossbar state by (weights_hash, "
        "device_config_hash) so repeat tenants skip reprogramming.  "
        "--smoke N runs an in-process server+client self-check: the "
        "same N-job mix three times, asserting every report validates, "
        "results are deterministic, and the cache was hit.",
    )

    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        help="worker threads executing jobs (default 4)",
    )
    p_serve.add_argument(
        "--max-coalesce",
        type=_positive_int,
        default=8,
        help="max inference jobs per coalesced batch (default 8)",
    )
    p_serve.add_argument(
        "--smoke",
        type=_positive_int,
        metavar="N",
        help="run the N-job self-check instead of serving forever",
    )
    p_serve.add_argument(
        "--event-log",
        type=Path,
        metavar="FILE",
        help="append one JSONL event per job lifecycle transition "
        "(submitted/dispatched/done/error) to FILE",
    )

    p_top = command(
        "top",
        _cmd_top,
        shared,
        help="live per-tenant throughput/latency table from a running "
        "server",
        description="Poll a job server's /v1/stats and render "
        "per-tenant submitted/done counts, throughput, e2e latency "
        "percentiles (p50/p95/p99 from the server's histograms), and "
        "the programmed-state cache hit ratio.",
    )
    p_top.add_argument(
        "--host", default="127.0.0.1", help="server address"
    )
    p_top.add_argument(
        "--port", type=int, required=True, help="server port"
    )
    p_top.add_argument(
        "--interval",
        type=_non_negative_float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    p_top.add_argument(
        "--count",
        type=_positive_int,
        default=1,
        help="how many frames to render before exiting (default 1)",
    )

    p_profile = command(
        "profile",
        _cmd_profile,
        shared,
        wrapper,
        help="run any subcommand under a telemetry collector",
        description="Wrap another subcommand in a telemetry collector "
        "and report hierarchical counters, timing spans, and a "
        "Chrome-trace file.  The counter section is deterministic "
        "(byte-identical across same-seed runs and across engine "
        "backends); spans are wall-clock.",
    )
    p_profile.add_argument(
        "--trace-out",
        default="profile_trace.json",
        help="Chrome-trace output path (default profile_trace.json)",
    )

    p_report = command(
        "report",
        _cmd_report,
        shared,
        wrapper,
        help="derived metrics (utilization, bubbles, ADC/MAC) from "
        "telemetry",
        description="Turn a telemetry counter tree into derived "
        "metrics: per-stage pipeline utilization and bubble cycles, "
        "per-tile crossbar occupancy, and ADC conversions per MAC.  "
        "Reads a saved `repro profile --json` document (--profile) or "
        "runs a subcommand fresh and analyses its counters.",
    )
    p_report.add_argument(
        "--profile",
        dest="profile_path",
        metavar="FILE",
        help="analyse a saved 'repro profile --json' document instead "
        "of running a subcommand",
    )
    p_report.add_argument(
        "--energy",
        action="store_true",
        help="attribute energy instead: price the event counters "
        "through the technology cost table and render the per-group "
        "energy/power breakdown",
    )

    p_bench = command(
        "bench",
        _cmd_bench,
        shared,
        help="run the benchmark suite and gate on committed baselines",
        description="Discover benchmarks/bench_*.py through the "
        "repro.bench registry, execute the selected suite, append the "
        "run to BENCH_trajectory.json, and compare deterministic "
        "metrics against benchmarks/baselines/*.json.  Exits non-zero "
        "on any bench failure or out-of-tolerance metric.",
    )
    p_bench.add_argument(
        "--suite",
        choices=("quick", "full"),
        default="quick",
        help="suite tier to run (default quick; full includes slow "
        "benches)",
    )
    p_bench.add_argument(
        "--filter",
        metavar="GLOB",
        help="fnmatch glob over bench names, e.g. 'fig*'",
    )
    p_bench.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard benches over N processes (deterministic metrics "
        "are unaffected; wall times then share the host)",
    )
    p_bench.add_argument(
        "--bench-dir",
        type=Path,
        help="benchmark directory (default: ./benchmarks or the "
        "checkout's)",
    )
    p_bench.add_argument(
        "--baseline-dir",
        type=Path,
        help="baseline directory (default: <bench-dir>/baselines)",
    )
    p_bench.add_argument(
        "--trajectory",
        type=Path,
        help="run-history file (default: <bench-dir>/../"
        "BENCH_trajectory.json)",
    )
    p_bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the baselines from this run instead of comparing",
    )
    p_bench.add_argument(
        "--list",
        dest="list_benches",
        action="store_true",
        help="list the registered benches and exit",
    )

    p_check = command(
        "check",
        _cmd_check,
        help="AST-based determinism & contract linter over the package",
        description="Run the repro.checks rules (see --list-rules) "
        "over the installed package or the given paths.  "
        "Exits 1 on findings, 0 when clean.  Suppress one line "
        "with '# repro: noqa[RULE]'.",
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the installed "
        "repro package)",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text; sarif emits a SARIF 2.1.0 "
        "log for GitHub code scanning)",
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    p_check.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run, e.g. RNG001,DET001 "
        "(default: all)",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level or args.verbose:
        _configure_logging(args.log_level, args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
