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
    repro serve --smoke 20 --json       # CI smoke: mixed jobs, twice
    repro top --port 8077               # live per-tenant latency table
    repro check --format json          # determinism/contract linter

(``python -m repro.cli ...`` works identically when the console script
is not installed.)

Every subcommand accepts the shared ``--seed`` / ``--batch`` options
and a ``--json`` flag that switches the output to a machine-readable
document.  All result data comes from :mod:`repro.api` — the CLI is a
thin presentation layer over the same facade library users import.

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
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro import api
from repro.reliability import AXES, campaign_summary
from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    analyze_counters,
    counters_from,
    histogram_percentiles,
    parse_prometheus,
    profile_report,
    render_analysis_report,
    sample_value,
    validate_analysis_report,
    validate_profile_report,
)
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
        if isinstance(document, dict):
            if "schema_version" not in document:
                document = {"schema_version": SCHEMA_VERSION, **document}
        else:
            document = {"schema_version": SCHEMA_VERSION, "rows": document}
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(text)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = api.Simulator.table1(batch=args.batch)
    text = "\n\n".join(row.summary() for row in rows.values())
    return _emit(args, api.table1_report(batch=args.batch), text)


def _cmd_fig4(args: argparse.Namespace) -> int:
    sweep = api.mapping_sweep()
    lines = ["Fig. 4 mapping trade-off (114x114x128 -> 112x112x256, 3x3):"]
    lines.append(f"{'X':>8s} {'passes/img':>12s} {'arrays':>10s}")
    for row in sweep["rows"]:
        lines.append(
            f"{row['duplication']:>8d} {row['passes_per_image']:>12d} "
            f"{row['arrays']:>10d}"
        )
    return _emit(args, sweep, "\n".join(lines))


def _cmd_fig5(args: argparse.Namespace) -> int:
    sweep = api.pipeline_sweep(layers=args.layers)
    lines = [f"Fig. 5 pipeline, L = {args.layers}:"]
    lines.append(
        f"{'B':>6s} {'sequential':>12s} {'pipelined':>12s} {'speedup':>9s}"
    )
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


def _cmd_summary(args: argparse.Namespace) -> int:
    if args.workload not in _WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; pick from "
            f"{sorted(_WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = _WORKLOADS[args.workload]()
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
    document = [
        {
            "field": row.field,
            "metric_low": row.metric_low,
            "metric_nominal": row.metric_nominal,
            "metric_high": row.metric_high,
            "swing": row.swing,
        }
        for row in rows
    ]
    lines = [f"PipeLayer {args.metric} sensitivity (0.5x .. 2x per field):"]
    lines.append(
        f"{'parameter':<28s}{'0.5x':>10s}{'nominal':>10s}{'2x':>10s}"
        f"{'swing':>8s}"
    )
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

    if args.workload not in _WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; pick from "
            f"{sorted(_WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    model = PipeLayerModel(
        _WORKLOADS[args.workload](), array_budget=args.budget
    )
    report = pipelayer_report(model, batch=args.batch)
    document = {
        "name": report.name,
        "array_count": report.array_count,
        "compute_area_mm2": report.compute_area_mm2,
        "memory_area_mm2": report.memory_area_mm2,
        "total_area_mm2": report.total_area_mm2,
        "static_power_w": report.static_power_w,
        "dynamic_power_w": report.dynamic_power_w,
        "total_power_w": report.total_power_w,
        "area_vs_gpu": report.area_vs_gpu,
    }
    return _emit(args, document, report.summary())


def _cmd_reliability(args: argparse.Namespace) -> int:
    rates, code = _parse_rates(args)
    if code:
        return code
    report = api.reliability_report(
        workload=args.workload,
        axis=args.axis,
        rates=rates,
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


def _parse_rates(args: argparse.Namespace) -> "Tuple[Optional[List[float]], int]":
    """The ``--rates`` list as floats, or an argparse-style error code."""
    if args.rates is None:
        return None, 0
    try:
        rates = [float(rate) for rate in args.rates.split(",") if rate]
    except ValueError:
        print(
            f"--rates must be comma-separated numbers, got {args.rates!r}",
            file=sys.stderr,
        )
        return None, 2
    if not rates:
        print("--rates must name at least one rate", file=sys.stderr)
        return None, 2
    return rates, 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Distributed deterministic sweep: (scenario × seed × backend) cells."""
    from repro.reliability.campaign import scenarios_for
    from repro.sweep import (
        SweepCache,
        SweepCell,
        run_sweep,
        sweep_report,
        sweep_summary,
    )
    from repro.utils.io import write_json_atomic
    from repro.xbar.engine import CrossbarEngineConfig, engine_config_to_dict

    rates, code = _parse_rates(args)
    if code:
        return code
    if args.seeds is not None:
        try:
            seeds = [int(seed) for seed in args.seeds.split(",") if seed]
        except ValueError:
            print(
                f"--seeds must be comma-separated integers, got "
                f"{args.seeds!r}",
                file=sys.stderr,
            )
            return 2
        if not seeds:
            print("--seeds must name at least one seed", file=sys.stderr)
            return 2
    else:
        seeds = [args.seed]
    backends = (
        ("loop", "vectorized") if args.backend == "both" else (args.backend,)
    )
    scenarios = scenarios_for(args.axis, rates)
    config_dict = engine_config_to_dict(CrossbarEngineConfig())

    cells: List[Any] = []
    scopes: List[str] = []
    for seed in seeds:
        for run_backend in backends:
            for scenario in scenarios:
                scopes.append(
                    f"cell[{scenario.name},seed={seed},"
                    f"backend={run_backend}]"
                )
                cells.append(
                    SweepCell(
                        "campaign_scenario",
                        {
                            "name": scenario.name,
                            "axis": scenario.axis,
                            "rate": scenario.rate,
                            "workload": args.workload,
                            "seed": int(seed),
                            "count": int(args.count),
                            "batch": int(args.batch),
                            "backend": run_backend,
                            "engine_config": config_dict,
                            "train_epochs": int(args.train_epochs),
                            "train_count": 256,
                            "include_tiles": not args.no_tiles,
                        },
                    )
                )

    trace_root = None
    trace_log = None
    if args.trace_out:
        from repro.telemetry import TraceContext, TraceLog

        trace_log = TraceLog(proc="driver")
        trace_root = TraceContext.root("sweep", trace_log)

    collector = getattr(args, "collector", None)
    run = run_sweep(
        cells,
        workers=args.workers,
        cache=SweepCache(args.cache_dir) if args.cache_dir else None,
        collector=collector.scope("sweep") if collector else None,
        scope_for=lambda index, cell: scopes[index],
        trace=trace_root,
    )
    if trace_root is not None and trace_log is not None:
        from repro.telemetry import trace_chrome_document

        trace_root.finish({"cells": len(cells)})
        write_json_atomic(
            Path(args.trace_out),
            trace_chrome_document(trace_log.spans()),
        )
    report = sweep_report(
        run,
        {
            "workload": args.workload,
            "axis": args.axis,
            "rates": [scenario.rate for scenario in scenarios],
            "seeds": seeds,
            "backends": list(backends),
            "count": int(args.count),
            "batch": int(args.batch),
            "train_epochs": int(args.train_epochs),
            "include_tiles": not args.no_tiles,
        },
    )
    if args.stats_out:
        # Execution facts (worker count, cache hits) are deliberately
        # not part of the deterministic report document.
        write_json_atomic(Path(args.stats_out), run.stats)
    text = sweep_summary(report)
    stats = run.stats
    text += (
        f"\n{stats['workers']} worker(s): {stats['cache_hits']} cached, "
        f"{stats['recomputed']} computed"
    )
    return _emit(args, report, text)


def _cmd_infer(args: argparse.Namespace) -> int:
    sim = api.Simulator.from_workload(
        args.workload,
        backend=args.backend,
        seed=args.seed,
        collector=getattr(args, "collector", None),
    )
    job = api.InferenceJob(
        workload=args.workload,
        seed=args.seed,
        backend=args.backend,
        count=args.count,
        batch=args.batch,
    )
    result = sim.run(job)
    return _emit(args, result.to_dict(), result.summary())


def _cmd_train(args: argparse.Namespace) -> int:
    sim = api.Simulator.from_workload(
        args.workload,
        backend=args.backend,
        seed=args.seed,
        collector=getattr(args, "collector", None),
    )
    job = api.TrainingJob(
        workload=args.workload,
        seed=args.seed,
        backend=args.backend,
        epochs=args.epochs,
        batch=args.batch,
        train_count=args.train_count,
        test_count=args.test_count,
    )
    result = sim.run(job)
    return _emit(args, result.to_dict(), result.summary())


def _smoke_jobs(count: int, seed: int) -> List["api.JobSpec"]:
    """A deterministic mixed-kind, multi-tenant job list for smokes.

    Mostly small inference jobs spread over three tenants and two
    model seeds (so coalescing and the programmed-state cache both
    engage), salted with a training job and a reliability campaign for
    kind coverage.
    """
    jobs: List[api.JobSpec] = []
    for index in range(count):
        tenant = f"tenant{index % 3}"
        slot = index % 8
        if slot == 5:
            jobs.append(
                api.TrainingJob(
                    workload="mlp",
                    seed=seed + 10,
                    epochs=1,
                    batch=16,
                    train_count=64,
                    test_count=32,
                    tenant=tenant,
                )
            )
        elif slot == 7:
            jobs.append(
                api.ReliabilityJob(
                    workload="mlp",
                    seed=seed,
                    axis="stuck",
                    rates=(0.02,),
                    count=16,
                    batch=16,
                    train_epochs=0,
                    include_tiles=False,
                    tenant=tenant,
                )
            )
        else:
            jobs.append(
                api.InferenceJob(
                    workload="mlp",
                    seed=seed + (index % 2),
                    count=16,
                    batch=8,
                    input_seed=None if index % 3 == 0 else 100 + slot,
                    tenant=tenant,
                )
            )
    return jobs


def _smoke_metrics_checks(
    snapshots: List[str], job_count: int
) -> Tuple[bool, bool, int]:
    """Parse the smoke's two ``/v1/metrics`` scrapes and check them.

    Returns ``(metrics_ok, metrics_deterministic, e2e_count)``:
    ``metrics_ok`` means both scrapes parse and the latency histograms
    are nonzero; ``metrics_deterministic`` means every latency
    *observation count* advanced by exactly ``job_count`` per pass
    (wall-clock values vary; how many samples land does not).
    """
    try:
        first, second = (
            parse_prometheus(snapshot) for snapshot in snapshots
        )
    except ValueError:
        return False, False, 0
    names = (
        "repro_serve_latency_queue_wait_seconds_count",
        "repro_serve_latency_e2e_seconds_count",
        "repro_serve_jobs_done",
    )
    counts = [
        (int(sample_value(first, name)), int(sample_value(second, name)))
        for name in names
    ]
    metrics_ok = all(after > 0 for _, after in counts)
    metrics_deterministic = all(
        before == job_count and after == 2 * job_count
        for before, after in counts
    )
    return metrics_ok, metrics_deterministic, counts[1][1]


def _smoke_energy_checks(
    snapshots: List[str], stats: dict
) -> Tuple[bool, bool]:
    """Check the smoke's energy attribution gauges over three passes.

    ``energy_ok``: the server-wide ``energy/*_joules`` counters are
    present and positive, the ``energy/average_watts`` gauge exists,
    and every tenant exposes its own unit-suffixed
    ``energy/total_joules``.  ``energy_deterministic``: the joules the
    third identical pass added equal the second pass's delta *exactly*
    (pass one additionally pays one-time array programming; after
    that, identical job mixes must cost identical energy).  The
    server quantizes every contribution to an exact binary grid, so
    these are byte-level equalities, not tolerances.
    """
    try:
        scrapes = [parse_prometheus(snapshot) for snapshot in snapshots]
    except ValueError:
        return False, False
    if len(scrapes) < 3:
        return False, False
    counters = stats.get("counters", {})
    tenants = sorted(
        {
            path[len(_TENANT_PREFIX) : path.index("]")]
            for path in counters
            if path.startswith(_TENANT_PREFIX) and "]" in path
        }
    )
    energy_ok = (
        counters.get("serve/energy/total_joules", 0.0) > 0.0
        and counters.get("serve/energy/simulated_seconds", 0.0) > 0.0
        and "serve/energy/average_watts" in counters
        and bool(tenants)
        and all(
            f"serve/tenant[{tenant}]/energy/total_joules" in counters
            for tenant in tenants
        )
    )
    targets: List[Tuple[str, Optional[dict]]] = [
        ("repro_serve_energy_total_joules", None),
        ("repro_serve_energy_simulated_seconds", None),
    ]
    targets.extend(
        ("repro_serve_tenant_energy_total_joules", {"tenant": tenant})
        for tenant in tenants
    )
    energy_deterministic = True
    for name, labels in targets:
        first, second, third = (
            sample_value(scrape, name, labels) for scrape in scrapes
        )
        if third - second != second - first:
            energy_deterministic = False
    steady = sample_value(
        scrapes[2], "repro_serve_energy_total_joules"
    ) - sample_value(scrapes[1], "repro_serve_energy_total_joules")
    energy_deterministic = energy_deterministic and steady > 0.0
    return energy_ok, energy_deterministic


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant job server (or its self-checking smoke)."""
    from repro.serve.client import ServeClient
    from repro.serve.server import (
        ServerConfig,
        running_server,
        validate_job_report,
    )
    from repro.telemetry import validate_trace_document

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_coalesce=args.max_coalesce,
        event_log=args.event_log,
    )
    if args.smoke is None:
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

    if args.smoke < 1:
        print("serve: --smoke needs at least 1 job", file=sys.stderr)
        return 2
    jobs = _smoke_jobs(args.smoke, args.seed)
    collector = Collector()
    with running_server(config, collector=collector) as (_, (host, port)):
        client = ServeClient(host, port)
        if not client.health():
            print("serve: health probe failed", file=sys.stderr)
            return 1
        # Same mix three times: every warm pass must hit the cache and
        # reproduce every result payload byte-for-byte.  A metrics
        # scrape after each pass checks the exposition is parseable,
        # its observation counts advance deterministically, and the
        # energy counters grow by an identical exact delta once the
        # one-time programming cost of pass one is behind.
        reports, metric_snapshots = [], []
        for _ in range(3):
            reports.append(client.run_many(jobs))
            metric_snapshots.append(client.metrics_text())
        stats = client.stats()
        trace_ok = True
        try:
            validate_trace_document(
                client.trace(reports[0][0]["job_id"])
            )
        except (ValueError, KeyError, IndexError):
            trace_ok = False
    for run in reports:
        for report in run:
            validate_job_report(report)
    failed = sum(
        1
        for run in reports
        for report in run
        if report["status"] != "done"
    )
    first_results = [r["result"] for r in reports[0]]
    deterministic = all(
        [r["result"] for r in run] == first_results
        for run in reports[1:]
    )
    metrics_ok, metrics_deterministic, observed = _smoke_metrics_checks(
        metric_snapshots[:2], len(jobs)
    )
    energy_ok, energy_deterministic = _smoke_energy_checks(
        metric_snapshots, stats
    )
    cache_hits = int(stats["counters"].get("serve/cache/hits", 0))
    coalesced = int(stats["counters"].get("serve/coalesced.jobs", 0))
    ok = (
        deterministic
        and cache_hits > 0
        and failed == 0
        and metrics_ok
        and metrics_deterministic
        and energy_ok
        and energy_deterministic
        and trace_ok
    )
    document = {
        "schema_version": SCHEMA_VERSION,
        "jobs": len(jobs),
        "runs": 3,
        "failed": failed,
        "deterministic": deterministic,
        "cache_hits": cache_hits,
        "cache": stats["cache"],
        "coalesced_jobs": coalesced,
        "metrics_ok": metrics_ok,
        "metrics_deterministic": metrics_deterministic,
        "energy_ok": energy_ok,
        "energy_deterministic": energy_deterministic,
        "energy_joules": stats["counters"].get(
            "serve/energy/total_joules", 0.0
        ),
        "latency_observations": observed,
        "trace_ok": trace_ok,
        "ok": ok,
    }
    if args.event_log is not None:
        from repro.telemetry import read_event_log

        document["events"] = len(read_event_log(args.event_log))
    text = (
        f"serve smoke: {len(jobs)} jobs x 3 runs on {host}:{port} — "
        f"{failed} failed, deterministic={deterministic}, "
        f"cache hits={cache_hits}, coalesced jobs={coalesced}, "
        f"metrics ok={metrics_ok} deterministic="
        f"{metrics_deterministic}, energy ok={energy_ok} "
        f"deterministic={energy_deterministic}, trace ok={trace_ok} "
        f"-> {'OK' if ok else 'FAIL'}"
    )
    _emit(args, document, text)
    return 0 if ok else 1


_TENANT_PREFIX = "serve/tenant["


def _top_rows(
    stats: dict, previous: Optional[dict], interval: float
) -> List[dict]:
    """Per-tenant throughput/latency/cache rows from a stats document."""
    counters = stats.get("counters", {})
    histograms = stats.get("histograms", {})
    tenants = sorted(
        {
            path[len(_TENANT_PREFIX) : path.index("]")]
            for path in list(counters) + list(histograms)
            if path.startswith(_TENANT_PREFIX) and "]" in path
        }
    )
    rows = []
    for tenant in tenants:
        prefix = f"{_TENANT_PREFIX}{tenant}]/"
        done = sum(
            value
            for path, value in counters.items()
            if path.startswith(f"{prefix}jobs[")
        )
        previous_done = 0.0
        if previous is not None:
            previous_done = sum(
                value
                for path, value in previous.get("counters", {}).items()
                if path.startswith(f"{prefix}jobs[")
            )
        histogram = histograms.get(f"{prefix}latency/e2e_seconds")
        percentiles = (
            histogram_percentiles(histogram)
            if histogram
            else {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        )
        rows.append(
            {
                "tenant": tenant,
                "submitted": int(counters.get(f"{prefix}submitted", 0)),
                "done": int(done),
                "throughput_jobs_s": (
                    (done - previous_done) / interval
                    if previous is not None and interval > 0
                    else 0.0
                ),
                **{
                    key: round(float(value), 6)
                    for key, value in percentiles.items()
                },
                "energy_joules": float(
                    counters.get(f"{prefix}energy/total_joules", 0.0)
                ),
            }
        )
    return rows


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
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port)
    previous: Optional[dict] = None
    for iteration in range(args.count):
        if iteration:
            time.sleep(args.interval)
        try:
            stats = client.stats()
        except (OSError, ServeError) as error:
            print(f"top: cannot reach server: {error}", file=sys.stderr)
            return 1
        rows = _top_rows(
            stats, previous, args.interval if iteration else 0.0
        )
        if args.json:
            document = {
                "schema_version": SCHEMA_VERSION,
                "queue_depth": stats.get("queue_depth", 0),
                "cache": stats.get("cache", {}),
                "tenants": rows,
            }
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(_render_top(stats, rows))
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
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print(
            f"{wrapper}: name a subcommand to wrap, e.g. "
            f"'repro {wrapper} infer mlp --json'",
            file=sys.stderr,
        )
        return None, None, 2
    if command[0] in _UNWRAPPABLE:
        print(
            f"{wrapper}: cannot wrap {command[0]!r}", file=sys.stderr
        )
        return None, None, 2
    parser = build_parser()
    try:
        inner = parser.parse_args(command)
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
    original_stdout = sys.stdout
    sys.stdout = buffer
    start = time.perf_counter()
    try:
        with collector.span(f"command[{command[0]}]"):
            exit_code = inner.func(inner)
    finally:
        sys.stdout = original_stdout
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
    collector.write_chrome_trace(args.trace_out)
    document = profile_report(
        collector,
        command,
        exit_code,
        wall_time_s,
        chrome_trace=args.trace_out,
    )
    validate_profile_report(document)
    if args.json or getattr(inner, "json", False):
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        if wrapped_output:
            sys.stdout.write(wrapped_output)
        print(_profile_summary(document))
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    """Derived-metrics analysis of a profile JSON or a fresh run."""
    if args.profile_path:
        if args.wrapped and [w for w in args.wrapped if w != "--"]:
            print(
                "report: pass either --profile or a subcommand to run, "
                "not both",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.profile_path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"report: cannot read profile: {error}", file=sys.stderr)
            return 2
        version = (
            document.get("schema_version")
            if isinstance(document, dict)
            else None
        )
        if version != SCHEMA_VERSION:
            print(
                f"report: profile {args.profile_path} has "
                f"schema_version {version!r}; this build reads version "
                f"{SCHEMA_VERSION} — regenerate it with 'repro profile "
                f"... --json'",
                file=sys.stderr,
            )
            return 2
        try:
            counters = counters_from(document)
        except TypeError as error:
            print(f"report: {error}", file=sys.stderr)
            return 2
        source = args.profile_path
        exit_code = 0
    else:
        command, inner, code = _parse_wrapped(args, "report")
        if command is None:
            return code
        collector, exit_code, _, _ = _run_wrapped(command, inner)
        counters = collector.counters()
        source = "repro " + " ".join(command)
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
        select = [
            rule.strip()
            for rule in args.select.split(",")
            if rule.strip()
        ]
    if args.list_rules:
        width = max(len(rule_id) for rule_id in checks.RULES)
        for rule_id, (summary, allow) in checks.rule_table().items():
            if select is not None and rule_id not in select:
                continue
            suffix = f"  [allowed: {', '.join(allow)}]" if allow else ""
            print(f"{rule_id:<{width}s}  {summary}{suffix}")
        return 0
    config = checks.CheckConfig(select=select)
    try:
        findings = checks.check_paths(
            [Path(p) for p in args.paths] or None, config=config
        )
    except (ValueError, FileNotFoundError) as error:
        print(f"check: {error}", file=sys.stderr)
        return 2
    stale = []
    if args.baseline:
        try:
            baseline = checks.load_baseline(Path(args.baseline))
        except (OSError, ValueError) as error:
            print(f"check: bad baseline: {error}", file=sys.stderr)
            return 2
        findings, stale = checks.apply_baseline(findings, baseline)
        for entry in stale:
            print(
                "check: stale baseline entry (no longer fires): "
                f"{entry['path']}: {entry['rule']} {entry['message']}"
                " -- delete it from the baseline",
                file=sys.stderr,
            )
    targets = args.paths or [str(checks.default_root())]
    if args.format == "sarif":
        checked = select if select is not None else sorted(checks.RULES)
        document = checks.sarif_document(findings, rule_ids=checked)
        checks.validate_sarif_document(document)
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "json" or args.json:
        document = checks.check_report(findings, targets, select)
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(
            checks.render_findings(
                findings, select if select is not None else checks.RULES
            )
        )
    return 1 if findings or stale else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified benchmark runner with baseline regression gating."""
    from repro import bench as bench_mod

    bench_dir = args.bench_dir
    if args.list_benches:
        try:
            specs = bench_mod.discover(bench_dir)
        except FileNotFoundError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 2
        width = max((len(spec.name) for spec in specs), default=0)
        for spec in specs:
            print(f"{spec.name:<{width}s}  suite={spec.suite}")
        return 0
    # Benches print their result tables as they run; capture them so
    # the runner's summary (or JSON document) is the only output.
    buffer = io.StringIO()
    original_stdout = sys.stdout
    sys.stdout = buffer
    try:
        run = bench_mod.run_suite(
            suite=args.suite,
            name_filter=args.filter,
            workers=args.workers,
            bench_dir=bench_dir,
            baseline_dir=args.baseline_dir,
            trajectory_path=args.trajectory,
            update_baselines=args.update_baselines,
            rel_tol=(
                args.rel_tol
                if args.rel_tol is not None
                else bench_mod.DEFAULT_REL_TOL
            ),
        )
    except FileNotFoundError as error:
        sys.stdout = original_stdout
        print(f"bench: {error}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = original_stdout
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--seed", type=int, default=0, help="master RNG seed (default 0)"
    )
    shared.add_argument(
        "--batch", type=int, default=32, help="batch size (default 32)"
    )
    shared.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON document instead of text",
    )
    _add_logging_flags(shared, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'ReRAM-based Accelerator "
        "for Deep Learning' (DATE 2018).",
    )
    _add_logging_flags(parser)
    parser.set_defaults(log_level=None, verbose=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser(
        "table1", parents=[shared], help="Table I: both accelerators"
    )
    p_table1.set_defaults(func=_cmd_table1)

    p_fig4 = sub.add_parser(
        "fig4", parents=[shared], help="Fig. 4 mapping sweep"
    )
    p_fig4.set_defaults(func=_cmd_fig4)

    p_fig5 = sub.add_parser(
        "fig5", parents=[shared], help="Fig. 5 pipeline cycles"
    )
    p_fig5.add_argument("--layers", type=int, default=8)
    p_fig5.set_defaults(func=_cmd_fig5)

    p_fig9 = sub.add_parser(
        "fig9", parents=[shared], help="Fig. 9 GAN pipeline schemes"
    )
    p_fig9.set_defaults(func=_cmd_fig9)

    p_summary = sub.add_parser(
        "summary", parents=[shared], help="workload inventory"
    )
    p_summary.add_argument("workload")
    p_summary.set_defaults(func=_cmd_summary)

    p_sens = sub.add_parser(
        "sensitivity",
        parents=[shared],
        help="tech-parameter tornado for Table I",
    )
    p_sens.add_argument(
        "--metric", choices=("speedup", "energy"), default="speedup"
    )
    p_sens.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the tornado fields over N processes",
    )
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_area = sub.add_parser(
        "area", parents=[shared], help="area/power budget of a workload"
    )
    p_area.add_argument("workload")
    p_area.add_argument("--budget", type=int, default=262144)
    p_area.set_defaults(func=_cmd_area)

    p_trace = sub.add_parser(
        "trace", parents=[shared], help="ASCII Gantt of a schedule"
    )
    p_trace.add_argument("--layers", type=int, default=3)
    p_trace.add_argument("--gan", action="store_true")
    p_trace.add_argument("--scheme", default="sp_cs")
    p_trace.set_defaults(func=_cmd_trace, batch=4)

    p_infer = sub.add_parser(
        "infer",
        parents=[shared],
        help="run synthetic inference through the crossbar simulator",
    )
    p_infer.add_argument(
        "workload",
        nargs="?",
        default="mlp",
        choices=api.Simulator.WORKLOADS,
    )
    p_infer.add_argument(
        "--backend", choices=("loop", "vectorized"), default=None
    )
    p_infer.add_argument("--count", type=int, default=64)
    p_infer.set_defaults(func=_cmd_infer)

    p_reliability = sub.add_parser(
        "reliability",
        parents=[shared],
        help="deterministic fault-injection campaign over a workload",
    )
    p_reliability.add_argument(
        "workload",
        nargs="?",
        default="mlp",
        choices=api.Simulator.WORKLOADS,
    )
    p_reliability.add_argument(
        "--axis", choices=tuple(sorted(AXES)), default="stuck"
    )
    p_reliability.add_argument(
        "--rates",
        default=None,
        help="comma-separated sweep points (default: per-axis preset)",
    )
    p_reliability.add_argument(
        "--backend",
        choices=("loop", "vectorized", "both"),
        default="vectorized",
        help="'both' also verifies loop == vectorized fault outcomes",
    )
    p_reliability.add_argument("--count", type=int, default=32)
    p_reliability.add_argument("--train-epochs", type=int, default=5)
    p_reliability.add_argument(
        "--no-tiles",
        action="store_true",
        help="omit the per-tile stuck-cell census from layer records",
    )
    p_reliability.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard scenarios over N processes (byte-identical report "
        "for any N)",
    )
    p_reliability.set_defaults(func=_cmd_reliability)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[shared],
        help="distributed deterministic sweep over (scenario x seed "
        "x backend) cells",
        description="Shard fault-injection scenario cells over a "
        "process pool (repro.sweep).  The merged sweep_report is "
        "byte-identical for any --workers value; with --cache-dir, "
        "completed cells replay from disk so interrupted sweeps "
        "resume without recomputation.",
    )
    p_sweep.add_argument(
        "workload",
        nargs="?",
        default="mlp",
        choices=api.Simulator.WORKLOADS,
    )
    p_sweep.add_argument(
        "--axis", choices=tuple(sorted(AXES)), default="stuck"
    )
    p_sweep.add_argument(
        "--rates",
        default=None,
        help="comma-separated sweep points (default: per-axis preset)",
    )
    p_sweep.add_argument(
        "--seeds",
        default=None,
        help="comma-separated master seeds (default: --seed)",
    )
    p_sweep.add_argument(
        "--backend",
        choices=("loop", "vectorized", "both"),
        default="vectorized",
        help="'both' adds one cell per backend per scenario",
    )
    p_sweep.add_argument("--count", type=int, default=32)
    p_sweep.add_argument("--train-epochs", type=int, default=5)
    p_sweep.add_argument(
        "--no-tiles",
        action="store_true",
        help="omit the per-tile stuck-cell census from layer records",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the cell pool (default 1: inline)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="on-disk cell cache keyed by (config_hash, seed); "
        "enables resume-after-interruption",
    )
    p_sweep.add_argument(
        "--stats-out",
        type=Path,
        default=None,
        help="write execution stats (workers, cache hits) to this "
        "file; they are kept out of the deterministic report",
    )
    p_sweep.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a stitched Chrome-trace of the sweep (logical "
        "clocks; byte-identical for any --workers value)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_train = sub.add_parser(
        "train",
        parents=[shared],
        help="crossbar-in-the-loop training on a synthetic set",
    )
    p_train.add_argument(
        "workload",
        nargs="?",
        default="mlp",
        choices=api.Simulator.WORKLOADS,
    )
    p_train.add_argument(
        "--backend", choices=("loop", "vectorized"), default=None
    )
    p_train.add_argument("--epochs", type=int, default=1)
    p_train.add_argument("--train-count", type=int, default=256)
    p_train.add_argument("--test-count", type=int, default=64)
    p_train.set_defaults(func=_cmd_train)

    p_serve = sub.add_parser(
        "serve",
        parents=[shared],
        help="async multi-tenant job server over the simulator",
        description="Serve simulation-as-a-service: accept "
        "schema-versioned JSON job specs (inference/training/"
        "reliability) from concurrent tenants on a tiny HTTP API, "
        "coalesce compatible inference requests into single batched "
        "crossbar evaluations (bit-identical to running them alone), "
        "and cache programmed-crossbar state by (weights_hash, "
        "device_config_hash) so repeat tenants skip reprogramming.  "
        "--smoke N runs an in-process server+client self-check: the "
        "same N-job mix twice, asserting every report validates, "
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
        type=int,
        default=4,
        help="worker threads executing jobs (default 4)",
    )
    p_serve.add_argument(
        "--max-coalesce",
        type=int,
        default=8,
        help="max inference jobs per coalesced batch (default 8)",
    )
    p_serve.add_argument(
        "--smoke",
        type=int,
        default=None,
        metavar="N",
        help="run the N-job self-check instead of serving forever",
    )
    p_serve.add_argument(
        "--event-log",
        type=Path,
        default=None,
        metavar="FILE",
        help="append one JSONL event per job lifecycle transition "
        "(submitted/dispatched/done/error) to FILE",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        parents=[shared],
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
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    p_top.add_argument(
        "--count",
        type=int,
        default=1,
        help="how many frames to render before exiting (default 1)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_profile = sub.add_parser(
        "profile",
        parents=[shared],
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
    p_profile.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="the subcommand to profile, with its own arguments",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_report = sub.add_parser(
        "report",
        parents=[shared],
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
        default=None,
        metavar="FILE",
        help="analyse a saved profile/analysis JSON instead of running "
        "a subcommand",
    )
    p_report.add_argument(
        "--energy",
        action="store_true",
        help="attribute energy instead: price the event counters "
        "through the technology cost table and render the per-group "
        "energy/power breakdown",
    )
    p_report.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="the subcommand to run and analyse, with its arguments",
    )
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "bench",
        parents=[shared],
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
        default=None,
        metavar="GLOB",
        help="fnmatch glob over bench names, e.g. 'fig*'",
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard benches over N processes (deterministic metrics "
        "are unaffected; wall times then share the host)",
    )
    p_bench.add_argument(
        "--bench-dir",
        type=Path,
        default=None,
        help="benchmark directory (default: ./benchmarks or the "
        "checkout's)",
    )
    p_bench.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="baseline directory (default: <bench-dir>/baselines)",
    )
    p_bench.add_argument(
        "--trajectory",
        type=Path,
        default=None,
        help="run-history file (default: <bench-dir>/../"
        "BENCH_trajectory.json)",
    )
    p_bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the baselines from this run instead of comparing",
    )
    p_bench.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        help="relative tolerance for --update-baselines bands",
    )
    p_bench.add_argument(
        "--list",
        dest="list_benches",
        action="store_true",
        help="list the registered benches and exit",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser(
        "check",
        help="AST-based determinism & contract linter over the package",
        description="Run the repro.checks rules (RNG001 randomness "
        "routing, DET001 wall-clock isolation, SCHEMA001 schema_version "
        "stamping, TEL001/TEL002 telemetry path and unit grammar, "
        "PY001-003 hygiene) plus the whole-program "
        "pass (ARCH001 layer DAG, CONC001-003 concurrency contracts, "
        "SCHEMA002 validator exhaustiveness, NOQA001 stale "
        "suppressions) over the installed package or the given paths.  "
        "Exits 1 on findings (or stale baseline entries), 0 when "
        "clean.  Suppress one line with '# repro: noqa[RULE]'.",
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
        "--baseline",
        default=None,
        metavar="PATH",
        help="checks_baseline.json ratchet file: listed findings are "
        "muted, entries that no longer fire are reported stale (exit "
        "1) so the file only ever shrinks",
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    p_check.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run, e.g. RNG001,DET001 "
        "(default: all)",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    p_check.set_defaults(func=_cmd_check)
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
