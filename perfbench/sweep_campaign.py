"""``sweep-campaign``: stuck-cell fault campaigns on ``mnist_cnn``.

Each campaign is ``run_campaign("mnist_cnn", axis="stuck", ...)``
with a fresh ``SweepCache`` in a directory of its own: the float
reference is trained (``nn`` forward/backward and SGD), then every
fault rate reprograms a deployment (``CrossbarEngine.prepare``, the
write path) and evaluates it in lockstep with the reference on the
collapsed transparent-ADC matmul.  Campaigns run back to back for the
measured time; each uses its own model seed, so no campaign reuses
another's trained reference.

The measured campaigns run with ``workers=1``, in this process, so
that their CPU seconds can be normalized to a reference host speed
(see ``calibrate``); the traced run times a ``workers=2`` campaign
for ``sweep.parallel_efficiency``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

from calibrate import HostClock
from common import SRC, WORK, Outcome, children_cpu_s, cpu_s, median
from common import peak_rss_mb, program_path

WORKLOAD = "mnist_cnn"
AXIS = "stuck"
RATES = (0.0, 0.01, 0.05, 0.1)
COUNT = 64
BATCH = 32
TRAIN_EPOCHS = 3
TRAIN_COUNT = 256
WORKERS = 2
#: Set-up is a fresh interpreter importing the campaign API and
#: building the config and an empty cache; the median of these runs
#: is reported.
SETUP_REPEATS = 9
#: How strongly a campaign's time follows the reference kernel's on a
#: busy host (``calibrate``).
HOST_SENSITIVITY = 0.4
#: Per-campaign latency limit for ``slo_attainment``, fixed from the
#: seed program: a campaign took 2.5-5.8 s as the host's speed drifted.
SLO_MS = 15000.0


def _model_seed(seed: int, index: int) -> int:
    return (seed * 1009 + index) % 2**31


def _setup(root: Path):
    """The campaign's base config and an empty cache of its own."""
    import repro.reliability.campaign  # noqa: F401 - part of set-up
    from repro.sweep import SweepCache
    from repro.xbar.engine import CrossbarEngineConfig

    directory = Path(tempfile.mkdtemp(prefix="sweep-", dir=root))
    return CrossbarEngineConfig(), SweepCache(directory), directory


def campaign(seed: int, config, cache, workers: int = 1,
             collector=None) -> Dict[str, Any]:
    from repro.reliability.campaign import run_campaign

    return run_campaign(
        WORKLOAD,
        axis=AXIS,
        rates=RATES,
        seed=seed,
        count=COUNT,
        batch=BATCH,
        engine_config=config,
        train_epochs=TRAIN_EPOCHS,
        train_count=TRAIN_COUNT,
        workers=workers,
        sweep_cache=cache,
        collector=collector,
    )


def canonical(report: Dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True)


def check(report: Dict[str, Any], replay: Dict[str, Any]) -> List[str]:
    """The report must validate and equal its warm-cache replay."""
    from repro.api import validate_reliability_report

    try:
        validate_reliability_report(report)
    except ValueError as exc:
        return [f"invalid reliability report: {exc}"]
    if canonical(report) != canonical(replay):
        return ["warm-cache replay differs from the computed report"]
    return []


def _workdir() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="sweep-campaign-", dir=WORK))


def _setup_time(root: Path) -> float:
    """CPU seconds for a fresh interpreter to run :func:`_setup`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = children_cpu_s()
    subprocess.run(
        [sys.executable, __file__, str(root)], env=env, check=True
    )
    return children_cpu_s() - start


def run(seed: int, seconds: float) -> Outcome:
    root = _workdir()
    clock = HostClock(HOST_SENSITIVITY)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_times.append(_setup_time(root))
            clock.sample()
        durations: List[float] = []
        walls: List[float] = []
        first = None
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not durations:
            model_seed = _model_seed(seed, len(durations))
            config, cache, _ = _setup(root)
            wall_start, start = time.perf_counter(), cpu_s()
            report = campaign(model_seed, config, cache)
            durations.append(cpu_s() - start)
            walls.append(time.perf_counter() - wall_start)
            clock.sample()
            if first is None:
                first = (model_seed, config, cache, report)
        model_seed, config, cache, report = first
        problems = check(report, campaign(model_seed, config, cache))
        images = len(RATES) * COUNT
        scale = clock.scale()
        durations_ms = [value * scale * 1e3 for value in durations]
        print(f"sweep-campaign: {len(durations)} campaigns, wall p50 "
              f"{median(walls):.3f} s, cpu p50 {median(durations):.3f} s, "
              f"host scale {scale:.4f}", file=sys.stderr)
        return Outcome(
            attempted=len(durations) + 1,
            failed=len(problems),
            problems=problems,
            metrics={
                "setup_s": median(setup_times) * scale,
                "peak_rss_mb": peak_rss_mb(),
                "images_per_s": images * 1e3 / median(durations_ms),
                "latency_p50_ms": median(durations_ms),
                "slo_attainment": sum(v <= SLO_MS for v in durations_ms)
                / len(durations_ms),
            },
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def trace(seed: int, seconds: float) -> Outcome:
    from repro.telemetry import Collector

    from layers import install, layer_metrics, total
    from tracer import Tracer, layer_summary, render_table

    root = _workdir()
    try:
        # Warm the process (imports, allocator) before anything is timed.
        config, cache, _ = _setup(root)
        campaign(_model_seed(seed, 0), config, cache)

        config, cache, _ = _setup(root)
        start = time.perf_counter()
        campaign(_model_seed(seed, 1), config, cache, workers=WORKERS)
        parallel_s = time.perf_counter() - start

        config, cache, _ = _setup(root)
        start = time.perf_counter()
        campaign(_model_seed(seed, 2), config, cache,
                 collector=Collector(record_spans=False))
        untraced_s = time.perf_counter() - start

        tracer = Tracer()
        install(tracer)
        collector = Collector(record_spans=False)
        config, cache, _ = _setup(root)
        try:
            start = time.perf_counter()
            report = campaign(_model_seed(seed, 3), config, cache,
                              collector=collector)
            traced_s = time.perf_counter() - start
        finally:
            tracer.restore()
        replay_collector = Collector(record_spans=False)
        replay = campaign(_model_seed(seed, 3), config, cache,
                          collector=replay_collector)
        problems = check(report, replay)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    tracer.write(WORK / f"trace-sweep-campaign-{seed}.json")
    spans = tracer.spans()
    summary = layer_summary(spans)
    counters = collector.counters()
    metrics = layer_metrics(summary, counters)
    cells = [span.duration for span in spans if span.name == "sweep.cell"]
    metrics.update({
        "reliability.reference_s": total(summary, "reliability.reference"),
        "reliability.lockstep_s": total(summary, "reliability.lockstep"),
        "sweep.cell_s_mean": sum(cells) / len(cells),
        "sweep.cell_s_max": max(cells),
        "sweep.parallel_efficiency": sum(cells) / (WORKERS * parallel_s),
        "sweep.cache.store_s": total(summary, "sweep.cache.store"),
        "sweep.cells_recomputed": counters.get("cells.recomputed", 0),
        "sweep.cells_cached": replay_collector.counters().get(
            "cells.cached", 0
        ),
        "telemetry.trace_overhead": traced_s / untraced_s,
    })
    print(render_table(summary))
    return Outcome(
        attempted=2, failed=len(problems), problems=problems,
        metrics=metrics,
    )


if __name__ == "__main__":
    program_path()
    _setup(Path(sys.argv[1]))
