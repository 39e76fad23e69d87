"""``infer-noisy``: closed-loop inference through the full noisy datapath.

One thread runs ``Simulator.run(InferenceJob)`` on ``mnist_cnn`` with
every read-path effect on (read noise, drift, transient upsets,
programming noise, stuck cells) and a lossy 8-bit ADC, so each matmul
takes the bit-serial path: drive decomposition, the stacked array
matmul, read effects, ADC quantize, row-block fold and accumulate.
Each job is one image; the next is sent when the last returns.  Job
and set-up times are CPU seconds normalized to a reference host speed
(see ``calibrate``).
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from typing import Dict, List

from calibrate import HostClock
from common import WORK, Outcome, cpu_s, median, peak_rss_mb
from layers import engine_counts, modeled_joules

WORKLOAD = "mnist_cnn"
#: Images per job (one closed-loop operation).
BATCH = 1
#: Lossy converter: the lossless width for 128 rows x 15 levels is 11.
ADC_BITS = 8
SETUP_REPEATS = 5
#: How strongly a job's time follows the reference kernel's on a busy
#: host (``calibrate``).
HOST_SENSITIVITY = 0.6
#: Jobs timed in a traced run (a fixed amount of work, so the traced
#: counts repeat exactly).
TRACE_JOBS = 4
#: Per-job latency limit for ``slo_attainment``, fixed from the seed
#: program: its median job took 0.75-1.6 s as the host's speed drifted.
SLO_MS = 5000.0

#: What one ``BATCH``-image job adds to the engine counters.  These
#: depend only on the network geometry and the batch, never on the
#: weights, inputs or random streams.
PINNED_PER_JOB = {
    "mvm_calls": 4,
    "subcycles": 40,
    "array_reads": 125952,
    "adc_conversions": 1008256,
    "macs": 834816,
}
#: Modeled joules of one job, summed over the four layers.
PINNED_JOULES_PER_JOB = 0.0028814966336
#: Arrays programmed once at deploy time.
PINNED_ARRAY_PROGRAMS = 88


def engine_config():
    from repro.xbar.device import NOISY_DEVICE, SOFT_ERROR_DEVICE
    from repro.xbar.engine import CrossbarEngineConfig

    device = dataclasses.replace(
        NOISY_DEVICE,
        drift_nu=SOFT_ERROR_DEVICE.drift_nu,
        upset_rate=SOFT_ERROR_DEVICE.upset_rate,
    )
    return CrossbarEngineConfig(device=device, adc_bits=ADC_BITS)


def _seeds(seed: int) -> Dict[str, int]:
    import numpy as np

    rng = np.random.default_rng([seed, 0x1F])
    return {
        "model": int(rng.integers(0, 2**31)),
        "inputs": int(rng.integers(0, 2**31)),
    }


def _job(model_seed: int, input_seed: int):
    from repro.api import InferenceJob

    return InferenceJob(
        workload=WORKLOAD,
        seed=model_seed,
        count=BATCH,
        batch=BATCH,
        input_seed=input_seed,
    )


def _deploy(model_seed: int, backend: str):
    from repro import Simulator
    from repro.telemetry import Collector

    return Simulator.from_workload(
        WORKLOAD,
        engine_config=engine_config(),
        backend=backend,
        seed=model_seed,
        collector=Collector(record_spans=False),
    )


def _delta(before: Dict[str, float], after: Dict[str, float]):
    return {
        path: value - before.get(path, 0.0)
        for path, value in after.items()
        if value != before.get(path, 0.0)
    }


def check_job(delta: Dict[str, float]) -> List[str]:
    """Problems with one job's counter delta against the pinned values."""
    counts = engine_counts(delta)
    wrong: Dict[str, float] = {
        name: counts[name]
        for name, pinned in PINNED_PER_JOB.items()
        if counts[name] != pinned
    }
    joules = sum(modeled_joules(delta).values())
    if not math.isclose(joules, PINNED_JOULES_PER_JOB, rel_tol=1e-9):
        wrong["joules"] = joules
    return [f"job counters {wrong}"] if wrong else []


def check_backends(model_seed: int, job, vectorized_outputs) -> List[str]:
    """The loop oracle must reproduce the vectorized first job exactly."""
    import numpy as np

    loop = _deploy(model_seed, "loop").run(job)
    if not np.array_equal(loop.outputs, vectorized_outputs):
        return ["loop backend outputs differ from vectorized"]
    return []


def _setup(model_seed: int, warm_seed: int, clock):
    """Deploy and run one warm-up job; the first repeat is kept.

    Returns the CPU seconds of each repeat with the kept deployment.
    """
    times, kept = [], None
    for _ in range(SETUP_REPEATS):
        start = cpu_s()
        sim = _deploy(model_seed, "vectorized")
        result = sim.run(_job(model_seed, warm_seed))
        times.append(cpu_s() - start)
        clock.sample()
        if kept is None:
            kept = (sim, result)
    return times, kept[0], kept[1]


def run(seed: int, seconds: float) -> Outcome:
    seeds = _seeds(seed)
    clock = HostClock(HOST_SENSITIVITY)
    setup_times, sim, warm = _setup(seeds["model"], seeds["inputs"], clock)
    problems = check_backends(
        seeds["model"], _job(seeds["model"], seeds["inputs"]), warm.outputs
    )
    programs = engine_counts(sim.counters_snapshot())["array_programs"]
    if programs != PINNED_ARRAY_PROGRAMS:
        problems.append(f"array_programs {programs} is not pinned value")
    latencies, walls, deltas = [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not latencies:
        before = sim.counters_snapshot()
        job = _job(seeds["model"], seeds["inputs"] + len(latencies) + 1)
        wall_start, job_start = time.perf_counter(), cpu_s()
        sim.run(job)
        latencies.append(cpu_s() - job_start)
        walls.append(time.perf_counter() - wall_start)
        deltas.append(_delta(before, sim.counters_snapshot()))
        clock.sample()
    job_problems = [check_job(delta) for delta in deltas]
    scale = clock.scale()
    latencies_ms = [value * scale * 1e3 for value in latencies]
    print(f"infer-noisy: {len(latencies)} jobs, wall p50 "
          f"{median(walls) * 1e3:.1f} ms, cpu p50 "
          f"{median(latencies) * 1e3:.1f} ms, host scale {scale:.4f}",
          file=sys.stderr)
    return Outcome(
        attempted=len(latencies) + 2,
        failed=len(problems) + sum(1 for found in job_problems if found),
        problems=problems + [p for found in job_problems for p in found],
        metrics={
            "setup_s": median(setup_times) * scale,
            "peak_rss_mb": peak_rss_mb(),
            "images_per_s": BATCH * 1e3 / median(latencies_ms),
            "latency_p50_ms": median(latencies_ms),
            "slo_attainment": sum(v <= SLO_MS for v in latencies_ms)
            / len(latencies_ms),
        },
    )


def _session(seeds: Dict[str, int]):
    """Deploy, warm up, then run the fixed traced job list."""
    sim = _deploy(seeds["model"], "vectorized")
    for index in range(TRACE_JOBS + 1):
        sim.run(_job(seeds["model"], seeds["inputs"] + index))
    return sim


def trace(seed: int, seconds: float) -> Outcome:
    from repro.core.pipelayer import PipeLayerModel

    from layers import install, layer_metrics, short_layer
    from tracer import Tracer, layer_summary, render_table

    seeds = _seeds(seed)
    # One job first, so that neither timed session pays for a cold start.
    _deploy(seeds["model"], "vectorized").run(
        _job(seeds["model"], seeds["inputs"])
    )
    start = time.perf_counter()
    _session(seeds)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer)
    try:
        start = time.perf_counter()
        sim = _session(seeds)
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    tracer.write(WORK / f"trace-infer-noisy-{seed}.json")
    summary = layer_summary(tracer.spans())
    metrics = layer_metrics(summary, sim.counters_snapshot())
    images = (TRACE_JOBS + 1) * BATCH
    modeled = {}
    for name, mapping in PipeLayerModel(sim.spec()).mappings.items():
        layer = short_layer(name)
        subcycles = mapping.subcycles_per_image * images
        metrics[f"core.modeled_subcycles.{layer}"] = subcycles
        modeled[f"xbar.matmul.{layer}"] = {
            "subcycles": subcycles,
            "joules": metrics[f"xbar.modeled_joules.{layer}"],
        }
    metrics["telemetry.trace_overhead"] = traced_s / untraced_s
    print(render_table(summary, modeled))
    return Outcome(attempted=TRACE_JOBS + 1, failed=0, metrics=metrics)
