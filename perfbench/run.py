"""Benchmark entry point: run one workload, check it, print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload infer-noisy --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

#: Environment of the benchmark and of every process it starts.
ENVIRONMENT = {
    # Host budget: two cores.  One BLAS thread per process: a second
    # one made ``infer-noisy`` faster on an idle host, but small
    # products split over two threads stall whenever the other core is
    # busy.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc malloc keeps the memory the program frees instead of
    # handing it back to the kernel, so a warmed-up process takes no
    # page faults.  With the defaults a noisy inference job spent 10-20%
    # of its time faulting in fresh pages, and the cost of a fault
    # moved with the load on the virtual machine's host.
    "MALLOC_MMAP_THRESHOLD_": "1000000000",
    "MALLOC_TRIM_THRESHOLD_": "1000000000",
}
MODULES = {
    "infer-noisy": "infer_noisy",
    "serve-open": "serve_open",
    "sweep-campaign": "sweep_campaign",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def catalog(root):
    """``(end_to_end, per_layer)`` name -> unit maps of BENCHMARK.json."""
    document = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in document["end_to_end"]},
        {m["name"]: m["unit"] for m in document["per_layer"]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)

    import importlib

    import common

    common.program_path()
    end_to_end, per_layer = catalog(common.ROOT)
    module = importlib.import_module(MODULES[args.workload])
    measure = module.trace if args.trace else module.run
    outcome = measure(args.seed, args.seconds)

    expected = per_layer if args.trace else end_to_end
    unknown = sorted(set(outcome.metrics) - set(expected))
    missing = sorted(set(end_to_end) - set(outcome.metrics))
    if unknown or (missing and not args.trace):
        raise common.BenchmarkError(
            f"metrics not in BENCHMARK.json: {unknown}; missing: {missing}"
        )
    # A traced run reports every per-layer metric; layers this
    # workload does not exercise did no work and read 0.
    values = {name: outcome.metrics.get(name, 0.0) for name in expected}
    common.check_metric_names(values)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": expected[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
        # BLAS and the allocator read their settings at start-up.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, **ENVIRONMENT))
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        sys.exit(1)
