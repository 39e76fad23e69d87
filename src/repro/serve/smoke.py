"""The ``repro serve --smoke`` self-check: a live server and client.

:func:`run_smoke` serves the same mixed-kind, multi-tenant job list
(:func:`smoke_jobs`) three times over HTTP and gates determinism,
cache reuse, and the metrics, energy and trace surfaces.  The metric
names and counter paths it checks are the server's own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.serve.client import ServeClient, tenant_ids
from repro.serve.jobs import InferenceJob, JobSpec, ReliabilityJob, TrainingJob
from repro.serve.server import (
    ServerConfig,
    running_server,
    validate_job_report,
)
from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    parse_prometheus,
    read_event_log,
    sample_value,
    validate_trace_document,
)

#: How many times the smoke submits its job list.
SMOKE_RUNS = 3


def smoke_jobs(count: int, seed: int) -> List[JobSpec]:
    """A deterministic mixed-kind, multi-tenant job list for smokes.

    Mostly small inference jobs spread over three tenants and two
    model seeds (so coalescing and the programmed-state cache both
    engage), salted with a training job and a reliability campaign for
    kind coverage.
    """
    jobs: List[JobSpec] = []
    for index in range(count):
        tenant = f"tenant{index % 3}"
        slot = index % 8
        if slot == 5:
            jobs.append(
                TrainingJob(
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
                ReliabilityJob(
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
                InferenceJob(
                    workload="mlp",
                    seed=seed + (index % 2),
                    count=16,
                    batch=8,
                    input_seed=None if index % 3 == 0 else 100 + slot,
                    tenant=tenant,
                )
            )
    return jobs


def metrics_checks(
    snapshots: List[str], job_count: int
) -> Tuple[bool, bool, int]:
    """Parse the smoke's first two ``/v1/metrics`` scrapes and check them.

    Returns ``(metrics_ok, metrics_deterministic, e2e_count)``:
    ``metrics_ok`` means both scrapes parse and the latency histograms
    are nonzero; ``metrics_deterministic`` means every latency
    *observation count* advanced by exactly ``job_count`` per pass
    (wall-clock values vary; how many samples land does not).
    """
    try:
        first, second = (parse_prometheus(snapshot) for snapshot in snapshots)
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


def energy_checks(
    snapshots: List[str], stats: Dict[str, Any]
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
    tenants = tenant_ids(counters)
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
    targets: List[Tuple[str, Optional[Dict[str, str]]]] = [
        ("repro_serve_energy_total_joules", None),
        ("repro_serve_energy_simulated_seconds", None),
    ]
    targets.extend(
        ("repro_serve_tenant_energy_total_joules", {"tenant": tenant})
        for tenant in tenants
    )
    series = [
        [sample_value(scrape, name, labels) for scrape in scrapes]
        for name, labels in targets
    ]
    # series[0] is the server-wide total: the steady pass must cost > 0.
    energy_deterministic = series[0][2] - series[0][1] > 0.0 and all(
        third - second == second - first
        for first, second, third in series
    )
    return energy_ok, energy_deterministic


def run_smoke(
    config: ServerConfig, count: int, seed: int
) -> Tuple[Dict[str, Any], str]:
    """Run the ``count``-job smoke; return ``(document, summary line)``.

    Raises :class:`ConnectionError` when the server fails its health
    probe.  ``document["ok"]`` is the conjunction of every gate.
    """
    jobs = smoke_jobs(count, seed)
    collector = Collector()
    with running_server(config, collector=collector) as (_, (host, port)):
        client = ServeClient(host, port)
        if not client.health():
            raise ConnectionError("health probe failed")
        # Same mix every pass: each warm pass must hit the cache and
        # reproduce every result payload byte-for-byte.  A metrics
        # scrape after each pass checks the exposition is parseable,
        # its observation counts advance deterministically, and the
        # energy counters grow by an identical exact delta once the
        # one-time programming cost of pass one is behind.
        reports: List[List[Dict[str, Any]]] = []
        metric_snapshots: List[str] = []
        for _ in range(SMOKE_RUNS):
            reports.append(client.run_many(jobs))
            metric_snapshots.append(client.metrics_text())
        stats = client.stats()
        trace_ok = True
        try:
            validate_trace_document(client.trace(reports[0][0]["job_id"]))
        except (ValueError, KeyError, IndexError):
            trace_ok = False
    for run in reports:
        for report in run:
            validate_job_report(report)
    failed = sum(
        report["status"] != "done" for run in reports for report in run
    )
    first_results = [r["result"] for r in reports[0]]
    deterministic = all(
        [r["result"] for r in run] == first_results
        for run in reports[1:]
    )
    metrics_ok, metrics_deterministic, observed = metrics_checks(
        metric_snapshots[:2], len(jobs)
    )
    energy_ok, energy_deterministic = energy_checks(metric_snapshots, stats)
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
    document: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "jobs": len(jobs),
        "runs": SMOKE_RUNS,
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
    if config.event_log is not None:
        document["events"] = len(read_event_log(config.event_log))
    text = (
        f"serve smoke: {len(jobs)} jobs x {SMOKE_RUNS} runs on "
        f"{host}:{port} — {failed} failed, deterministic={deterministic}, "
        f"cache hits={cache_hits}, coalesced jobs={coalesced}, "
        f"metrics ok={metrics_ok} deterministic="
        f"{metrics_deterministic}, energy ok={energy_ok} "
        f"deterministic={energy_deterministic}, trace ok={trace_ok} "
        f"-> {'OK' if ok else 'FAIL'}"
    )
    return document, text
