"""Unified benchmark runner, registry, and regression gating.

The 17 ``benchmarks/bench_*.py`` modules regenerate the paper's
figures and tables; this package runs them as one suite, and
``repro bench`` is the only way to run them:

* :func:`register` / :func:`discover` — the registry every bench
  module joins (``@register(suite="quick")`` above its entry point);
* :func:`run_suite` — execute a suite tier, check the bench
  documents each entry point returns, collect their deterministic
  metrics, append the run to ``BENCH_trajectory.json``, and compare
  against the committed baselines in ``benchmarks/baselines/``;
* :mod:`repro.bench.baseline` — tolerance-band comparison and
  baseline (re)generation.

CLI::

    repro bench --suite quick            # run + gate on baselines
    repro bench --suite full --filter 'fig*'
    repro bench --list                   # show the registry
    repro bench --update-baselines       # refresh after a change

``repro bench`` exits non-zero when a bench fails or any deterministic
metric leaves its baseline tolerance band — the regression gate CI
runs on every push.
"""

from repro.bench.baseline import (
    DEFAULT_REL_TOL,
    Deviation,
    compare_metrics,
    load_baseline,
    validate_baseline,
    write_baseline,
)
from repro.bench.registry import (
    SUITES,
    BenchSpec,
    clear_registry,
    default_bench_dir,
    discover,
    register,
    registered,
)
from repro.bench.runner import (
    BenchOutcome,
    SuiteRun,
    append_trajectory,
    load_trajectory,
    run_suite,
)

__all__ = [
    "BenchOutcome",
    "BenchSpec",
    "DEFAULT_REL_TOL",
    "Deviation",
    "SUITES",
    "SuiteRun",
    "append_trajectory",
    "clear_registry",
    "compare_metrics",
    "default_bench_dir",
    "discover",
    "load_baseline",
    "load_trajectory",
    "register",
    "registered",
    "run_suite",
    "validate_baseline",
    "write_baseline",
]
