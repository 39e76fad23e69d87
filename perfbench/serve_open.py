"""``serve-open``: open-loop HTTP traffic against ``repro serve``.

A ``repro serve --workers 2`` subprocess with its default
batch-invariant (fast-ideal) engine config receives Poisson arrivals
from :mod:`loadgen`: a skewed mix of :data:`loadgen.MODEL_COUNT`
models across three tenants, first an uncounted warm-up, then a
``steady`` and a ``peak`` phase at fixed rates.  Every report must
validate and carry the output digest of a direct ``Simulator.run`` of
the same spec.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import loadgen
from common import ROOT, SRC, WORK, BenchmarkError, Outcome, median
from common import peak_rss_mb, percentile

#: Jobs per second of the two phases.  The seed program kept up with
#: about 135 jobs/s of a heavier mix on a fast host, but at a quarter
#: of that and above the median latency moved by a quarter or more
#: from run to run (README.md), so both phases stay well below it.
STEADY_RATE = 10.0
PEAK_RATE = 20.0
WARMUP_JOBS = 40
#: Each measured phase gets at least this many jobs, so that its 95th
#: percentile has at least ten samples beyond it.
MIN_PHASE_JOBS = 200
#: Latency limit of ``slo_attainment`` (peak phase), fixed from the
#: seed program, whose peak-phase p95 was about 40 ms; the margin
#: absorbs the host's speed drift.
SLO_MS = 1000.0
SETUP_REPEATS = 5
SERVER_ARGS = ("--workers", "2", "--port", "0")
STARTUP_TIMEOUT = 60.0


def phases(seconds: float) -> List[Tuple[str, float, int]]:
    """Warm-up, then ``steady`` and ``peak`` sharing ``seconds``."""
    return [
        ("warmup", PEAK_RATE, WARMUP_JOBS),
        ("steady", STEADY_RATE,
         max(MIN_PHASE_JOBS, round(STEADY_RATE * seconds * 0.5))),
        ("peak", PEAK_RATE,
         max(MIN_PHASE_JOBS, round(PEAK_RATE * seconds * 0.5))),
    ]


class Server:
    """One server subprocess; ``address`` once it answers healthz."""

    def __init__(self, command: Sequence[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(Path(__file__).resolve().parent)]
        )
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            list(command), cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_ready(self) -> Tuple[str, int]:
        readable, _, _ = select.select(
            [self.process.stdout], [], [], STARTUP_TIMEOUT
        )
        line = self.process.stdout.readline() if readable else ""
        if "listening on http://" not in line:
            raise BenchmarkError(f"server did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                status, document = loadgen.request(
                    host, int(port), "GET", "/v1/healthz"
                )
                if status == 200 and document.get("ok"):
                    return host, int(port)
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchmarkError("server never answered /v1/healthz")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@contextmanager
def running(command: Sequence[str]) -> Iterator[Server]:
    server = Server(command)
    try:
        yield server
    finally:
        server.stop()


def plain_command() -> List[str]:
    return [sys.executable, "-m", "repro.cli", "serve", *SERVER_ARGS]


def traced_command(spans_path: Path) -> List[str]:
    launcher = Path(__file__).resolve().parent / "serve_launcher.py"
    return [sys.executable, str(launcher), str(spans_path), *SERVER_ARGS]


def stats(server: Server) -> Dict[str, Any]:
    from repro.serve import validate_stats_report

    status, document = loadgen.request(*server.address, "GET", "/v1/stats")
    if status != 200:
        raise BenchmarkError(f"/v1/stats answered HTTP {status}")
    return validate_stats_report(document)


def _histogram_delta(before: Dict[str, Any], after: Dict[str, Any],
                     path: str) -> Dict[str, Any]:
    new = after["histograms"].get(path)
    if new is None:
        return {"bounds": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0}
    old = before["histograms"].get(path)
    if old is None:
        return new
    return {
        "bounds": new["bounds"],
        "counts": [a - b for a, b in zip(new["counts"], old["counts"])],
        "count": new["count"] - old["count"],
        "sum": new["sum"] - old["sum"],
    }


def server_metrics(before: Dict[str, Any],
                   after: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer serve metrics over the measured phases (stats diff)."""
    from repro.telemetry.analysis import histogram_quantile

    def counter(name: str) -> float:
        path = f"serve/{name}"
        return after["counters"].get(path, 0) - before["counters"].get(
            path, 0
        )

    queue_wait = _histogram_delta(
        before, after, "serve/latency/queue_wait_seconds"
    )
    evaluate = _histogram_delta(
        before, after, "serve/latency/engine_evaluate_seconds"
    )
    batches = _histogram_delta(
        before, after, "serve/coalesce/batch_size_jobs"
    )
    hits, misses = counter("cache/hits"), counter("cache/misses")
    return {
        "serve.queue_wait_ms_p50": histogram_quantile(queue_wait, 0.5) * 1e3,
        "serve.queue_wait_ms_p95": histogram_quantile(queue_wait, 0.95)
        * 1e3,
        "serve.engine_evaluate_ms_p50": histogram_quantile(evaluate, 0.5)
        * 1e3,
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "serve.cache.misses": misses,
        "serve.cache.evictions": counter("cache/evictions"),
        "serve.coalesce.jobs_per_batch": batches["sum"] / batches["count"]
        if batches["count"] else 0.0,
    }


class Oracle:
    """Output digests of direct ``Simulator.run`` calls, per spec."""

    def __init__(self) -> None:
        self._simulators: Dict[Tuple[str, int], Any] = {}
        self._digests: Dict[Tuple, str] = {}

    def digest(self, job: Dict[str, Any]) -> str:
        from repro import Simulator
        from repro.serve import ServerConfig
        from repro.serve.jobs import job_from_dict
        from repro.xbar.engine import weights_hash

        key = tuple(sorted((k, v) for k, v in job.items() if k != "tenant"))
        if key not in self._digests:
            spec = job_from_dict(job)
            model = (spec.workload, spec.seed)
            if model not in self._simulators:
                self._simulators[model] = Simulator.from_workload(
                    spec.workload,
                    engine_config=ServerConfig().engine_config,
                    seed=spec.seed,
                )
            result = self._simulators[model].run(spec)
            self._digests[key] = weights_hash(result.outputs)
        return self._digests[key]


def check(sent: Sequence[loadgen.Sent], oracle: Oracle) -> List[str]:
    """One problem string per job whose report is missing or wrong."""
    from repro.serve import validate_job_report
    from repro.serve.jobs import job_from_dict

    problems = []
    for index, record in enumerate(sent):
        if record.error is not None or record.report is None:
            problems.append(f"job {index}: {record.error or 'no report'}")
            continue
        report = record.report
        try:
            validate_job_report(report)
        except ValueError as exc:
            problems.append(f"job {index}: invalid report: {exc}")
            continue
        if report["status"] != "done":
            problems.append(f"job {index}: status {report['status']}")
        elif job_from_dict(report["spec"]) != job_from_dict(
            record.arrival.job
        ):
            problems.append(f"job {index}: report is for another spec")
        elif report["result"]["outputs_sha256"] != oracle.digest(
            record.arrival.job
        ):
            problems.append(f"job {index}: outputs differ from direct run")
    return problems


def _session(command: Sequence[str], arrivals: Sequence[loadgen.Arrival]):
    """Warm up, then replay the measured phases against one server."""
    warmup = [a for a in arrivals if a.phase == "warmup"]
    measured = [a for a in arrivals if a.phase != "warmup"]
    with running(command) as server:
        client = loadgen.OpenLoopClient(*server.address)
        client.run(warmup)
        before = stats(server)
        sent = client.run(measured)
        after = stats(server)
        rss = server.peak_rss_mb()
        ready_s = server.ready_s
    return sent, server_metrics(before, after), rss, ready_s


def _latencies_ms(sent: Sequence[loadgen.Sent],
                  phases: Sequence[str]) -> List[float]:
    return [
        record.latency * 1e3
        for record in sent
        if record.arrival.phase in phases and record.latency is not None
    ]


def phase_metrics(sent: Sequence[loadgen.Sent]) -> Dict[str, float]:
    """Per-phase latency percentiles and the generator's lateness."""
    metrics = {
        "loadgen.lag_ms_p95": percentile([r.lag * 1e3 for r in sent], 95),
    }
    for phase in ("steady", "peak"):
        latencies = _latencies_ms(sent, (phase,))
        metrics[f"latency_p50_ms_{phase}"] = median(latencies)
        metrics[f"latency_p95_ms_{phase}"] = percentile(latencies, 95)
    return metrics


def _setup_times() -> List[float]:
    times = []
    for _ in range(SETUP_REPEATS - 1):
        with running(plain_command()) as server:
            times.append(server.ready_s)
    return times


def run(seed: int, seconds: float) -> Outcome:
    arrivals = loadgen.schedule(seed, phases(seconds))
    print(f"schedule sha256={loadgen.digest(arrivals)} jobs={len(arrivals)}")
    setup_times = _setup_times()
    sent, _, rss, ready_s = _session(plain_command(), arrivals)
    setup_times.append(ready_s)
    problems = check(sent, Oracle())
    done = [r for r in sent if r.latency is not None]
    peak = [r for r in sent if r.arrival.phase == "peak"]
    within = sum(
        1 for r in peak
        if r.report is not None and r.error is None
        and r.latency * 1e3 <= SLO_MS
    )
    window = max(r.arrival.due + r.latency for r in done) - min(
        r.arrival.due for r in sent
    )
    return Outcome(
        attempted=len(sent),
        failed=len(problems),
        problems=problems[:10],
        metrics={
            "setup_s": median(setup_times),
            "peak_rss_mb": rss,
            "images_per_s": sum(r.arrival.job["count"] for r in done)
            / window,
            "latency_p50_ms": median(_latencies_ms(sent, ("steady", "peak"))),
            "slo_attainment": within / len(peak),
        },
    )


def trace(seed: int, seconds: float) -> Outcome:
    from layers import layer_metrics, total
    from tracer import layer_summary, read_spans, render_table

    arrivals = loadgen.schedule(seed, phases(seconds))
    print(f"schedule sha256={loadgen.digest(arrivals)} jobs={len(arrivals)}")
    sent, serve_stats, _, _ = _session(plain_command(), arrivals)
    spans_path = WORK / f"trace-serve-open-{seed}.json"
    traced, _, _, _ = _session(traced_command(spans_path), arrivals)
    summary = layer_summary(read_spans(spans_path))
    print(render_table(summary))

    metrics = layer_metrics(summary, {})
    metrics.update(serve_stats)
    metrics.update(phase_metrics(sent))
    metrics.update({
        "serve.submit_ms_p50": median([r.submit_s * 1e3 for r in sent]),
        "serve.parse_s": total(summary, "serve.parse"),
        "serve.plan_s": total(summary, "serve.plan"),
        "serve.cache.lease_s": total(summary, "serve.cache.lease"),
        "serve.evaluate_s": total(summary, "serve.evaluate")
        + total(summary, "api.run"),
        "serve.price_s": total(summary, "serve.price"),
        "serve.report_s": total(summary, "serve.report"),
        "telemetry.trace_overhead": median(_latencies_ms(traced, ("peak",)))
        / median(_latencies_ms(sent, ("peak",))),
    })
    problems = check(sent, Oracle()) + check(traced, Oracle())
    return Outcome(
        attempted=len(sent) + len(traced),
        failed=len(problems),
        problems=problems[:10],
        metrics=metrics,
    )
