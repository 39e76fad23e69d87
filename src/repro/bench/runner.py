"""Unified benchmark runner behind ``repro bench``.

Executes the registered benchmarks (:mod:`repro.bench.registry`), the
only way to run them:

* every entry point takes no arguments and returns the validated
  bench documents it recorded (``benchmarks._common.record_json``
  writes and returns them); the documents' deterministic ``metrics``
  maps become the run's comparable numbers;
* each run appends a record to the top-level ``BENCH_trajectory.json``
  history, so the perf trajectory of the repository is machine
  readable across commits;
* the run is compared against the committed baselines
  (:mod:`repro.bench.baseline`); any out-of-band metric or failed
  bench makes :meth:`SuiteRun.exit_code` non-zero.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench import baseline as baseline_mod
from repro.bench.registry import default_bench_dir, discover
from repro.sweep import SweepCell, run_sweep
from repro.telemetry import SCHEMA_VERSION, validate_bench_document
from repro.utils.io import exclusive_lock, write_json_atomic

_log = logging.getLogger("repro.bench")

#: Default location of the run-history file, relative to the
#: benchmark directory's parent (the repository root in a checkout).
TRAJECTORY_NAME = "BENCH_trajectory.json"


#: Metric-name fragments that mark a *wall-clock* measurement.  Wall
#: time is host noise, so gating it against committed baselines would
#: make CI flaky; such keys live in ``wall_time_s`` fields instead and
#: are dropped (loudly) if a bench records them as metrics.
_WALL_CLOCK_METRICS = ("wall_time", "wall_clock", "elapsed_s")


def _document_metrics(documents: List[Dict[str, Any]]) -> Dict[str, float]:
    """Flatten the deterministic ``metrics`` maps of bench documents.

    Keys are ``<workload>/<backend>/<metric>`` so one bench may record
    several configurations without collisions.  Wall-clock-looking
    metric names are excluded: only deterministic model outputs may be
    baseline-gated (see :data:`_WALL_CLOCK_METRICS`).
    """
    metrics: Dict[str, float] = {}
    for document in documents:
        prefix = f"{document['workload']}/{document['backend']}"
        for name, value in (document.get("metrics") or {}).items():
            if any(marker in name for marker in _WALL_CLOCK_METRICS):
                _log.warning(
                    "metric %s/%s looks like a wall-clock measurement; "
                    "dropping it from the baseline-gated metrics "
                    "(record it as wall_time_s instead)", prefix, name,
                )
                continue
            key = f"{prefix}/{name}"
            if key in metrics and metrics[key] != value:
                _log.warning(
                    "metric %s recorded twice with differing values "
                    "(%r then %r); keeping the last", key,
                    metrics[key], value,
                )
            metrics[key] = float(value)
    return metrics


@dataclass
class BenchOutcome:
    """One bench's execution inside a suite run."""

    name: str
    suite: str
    status: str  # "ok" | "failed"
    wall_time_s: float
    error: Optional[str] = None
    documents: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    baseline_status: str = "no-baseline"  # | "ok" | "regression"
    deviations: List[baseline_mod.Deviation] = field(default_factory=list)

    @property
    def regressions(self) -> List[baseline_mod.Deviation]:
        return [d for d in self.deviations if d.status != "ok"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "suite": self.suite,
            "status": self.status,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
            "metrics": dict(sorted(self.metrics.items())),
            "document_count": len(self.documents),
            "baseline_status": self.baseline_status,
            "regressions": [d.describe() for d in self.regressions],
        }


@dataclass
class SuiteRun:
    """The outcome of one ``repro bench`` invocation."""

    suite: str
    filter: Optional[str]
    benches: List[BenchOutcome]
    wall_time_s: float

    @property
    def failure_count(self) -> int:
        return sum(1 for b in self.benches if b.status != "ok")

    @property
    def regression_count(self) -> int:
        return sum(len(b.regressions) for b in self.benches)

    @property
    def exit_code(self) -> int:
        return 1 if (self.failure_count or self.regression_count) else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench_run",
            "suite": self.suite,
            "filter": self.filter,
            "wall_time_s": self.wall_time_s,
            "benches": [b.to_dict() for b in self.benches],
            "failure_count": self.failure_count,
            "regression_count": self.regression_count,
            "exit_code": self.exit_code,
        }

    def summary(self) -> str:
        lines = [
            f"suite {self.suite!r}: {len(self.benches)} benches in "
            f"{self.wall_time_s:.2f} s, {self.failure_count} failed, "
            f"{self.regression_count} regression(s)"
        ]
        width = max((len(b.name) for b in self.benches), default=0)
        for bench in self.benches:
            lines.append(
                f"  {bench.name:<{width}s}  {bench.status:<6s} "
                f"{bench.wall_time_s:>8.3f} s  "
                f"{len(bench.metrics):>3d} metrics  "
                f"baseline {bench.baseline_status}"
            )
            if bench.error:
                first_line = bench.error.strip().splitlines()[-1]
                lines.append(f"    {first_line}")
            for deviation in bench.regressions:
                lines.append(f"    REGRESSION {deviation.describe()}")
        return "\n".join(lines)


def _checked_documents(name: str, returned: Any) -> List[Dict[str, Any]]:
    """``returned`` if it is a list of valid bench documents."""
    if not isinstance(returned, list):
        raise TypeError(
            f"bench {name!r} returned {type(returned).__name__}, "
            "not a list of bench documents"
        )
    for index, document in enumerate(returned):
        if not isinstance(document, dict):
            raise TypeError(
                f"bench {name!r} document {index} is a "
                f"{type(document).__name__}, not a bench document"
            )
        validate_bench_document(document)
    return returned


def run_bench_cell(spec: Dict[str, Any], collector: Any) -> Dict[str, Any]:
    """Sweep cell function for one registered bench (kind ``"bench"``).

    The spec names the bench and its benchmark directory; the worker
    re-discovers the registry (bench functions are code, not data — a
    name travels across the process boundary, a closure does not),
    calls the one matching entry point, and checks that it returned a
    list of valid bench documents.  The returned record holds the
    fields of a :class:`BenchOutcome`; baseline gating happens in the
    submitting process, which holds the baseline directory.

    Bench results include wall-clock timings, so bench cells are
    **never cached** — they are sharded for throughput only.
    """
    bench_dir = Path(spec["bench_dir"]) if spec.get("bench_dir") else None
    matches = [
        candidate
        for candidate in discover(bench_dir)
        if candidate.name == spec["name"]
    ]
    if not matches:
        raise ValueError(
            f"bench {spec['name']!r} not found in {bench_dir}"
        )
    bench = matches[0]
    _log.info("bench %s: starting (suite=%s)", bench.name, bench.suite)
    start = time.perf_counter()  # repro: noqa[DET001] -- wall_time_s only
    documents: List[Dict[str, Any]] = []
    error = None
    try:
        documents = _checked_documents(bench.name, bench.func())
    except Exception:
        error = traceback.format_exc()
        _log.warning("bench %s failed:\n%s", bench.name, error)
    wall_time_s = time.perf_counter() - start  # repro: noqa[DET001]
    metrics = _document_metrics(documents)
    status = "failed" if error else "ok"
    _log.info(
        "bench %s: %s in %.3f s (%d metrics)",
        bench.name, status, wall_time_s, len(metrics),
    )
    collector.count("benches", 1)
    collector.count("documents", len(documents))
    return {
        "name": bench.name,
        "suite": bench.suite,
        "status": status,
        "wall_time_s": wall_time_s,
        "error": error,
        "documents": documents,
        "metrics": metrics,
    }


def run_suite(
    suite: str = "quick",
    name_filter: Optional[str] = None,
    bench_dir: Optional[Path] = None,
    baseline_dir: Optional[Path] = None,
    trajectory_path: Optional[Path] = None,
    update_baselines: bool = False,
    workers: int = 1,
) -> SuiteRun:
    """Discover, execute, gate, and record one benchmark suite run.

    ``name_filter`` is an fnmatch glob over bench names.  With
    ``update_baselines`` the committed baselines are rewritten from
    this run instead of being compared (the run then never reports
    regressions).  ``trajectory_path=None`` derives
    ``<bench_dir>/../BENCH_trajectory.json``; pass an explicit path to
    redirect, e.g. in tests.  ``workers=N`` shards the benches over a
    process pool (deterministic metrics are unaffected; wall times
    then measure contended hosts).
    """
    bench_dir = Path(bench_dir) if bench_dir else default_bench_dir()
    specs = discover(bench_dir)
    if baseline_dir is None:
        baseline_dir = bench_dir / "baselines"
    if trajectory_path is None:
        trajectory_path = bench_dir.parent / TRAJECTORY_NAME

    selected = [spec for spec in specs if spec.selected_by(suite)]
    if name_filter:
        selected = [
            spec
            for spec in selected
            if fnmatch.fnmatch(spec.name, name_filter)
        ]
    start = time.perf_counter()  # repro: noqa[DET001] -- wall_time_s only
    cells = [
        SweepCell(
            "bench", {"name": spec.name, "bench_dir": str(bench_dir)}
        )
        for spec in selected
    ]
    sweep = run_sweep(
        cells,
        workers=workers,
        scope_for=lambda index, cell: f"bench[{cell.spec['name']}]",
    )
    benches = [BenchOutcome(**record) for record in sweep.results()]
    for outcome in benches:
        if outcome.status != "ok":
            continue
        if update_baselines:
            if outcome.metrics:
                baseline_mod.write_baseline(
                    baseline_dir, outcome.name, outcome.metrics
                )
                outcome.baseline_status = "updated"
            continue
        committed = baseline_mod.load_baseline(baseline_dir, outcome.name)
        if committed is None:
            outcome.baseline_status = "no-baseline"
            continue
        outcome.deviations = baseline_mod.compare_metrics(
            outcome.name, outcome.metrics, committed
        )
        outcome.baseline_status = (
            "regression" if outcome.regressions else "ok"
        )
    run = SuiteRun(
        suite=suite,
        filter=name_filter,
        benches=benches,
        wall_time_s=time.perf_counter() - start,  # repro: noqa[DET001]
    )
    append_trajectory(trajectory_path, run)
    return run


# -- the trajectory file ----------------------------------------------------
def load_trajectory(path: Path) -> Dict[str, Any]:
    """The run-history document at ``path`` (fresh skeleton if absent)."""
    path = Path(path)
    if path.is_file():
        document = json.loads(path.read_text())
        if document.get("kind") != "bench_trajectory":
            raise ValueError(
                f"{path} is not a bench trajectory document"
            )
        return document
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_trajectory",
        "runs": [],
    }


def append_trajectory(path: Path, run: SuiteRun) -> Path:
    """Append one suite run's record to the history at ``path``.

    The read-modify-write is concurrency-safe: an exclusive sidecar
    lock serializes concurrent appenders (two parallel suite runs each
    land their record instead of silently dropping one), and the
    rewrite goes through :func:`repro.utils.io.write_json_atomic` so a
    reader never observes a torn history file.
    """
    path = Path(path)
    with exclusive_lock(path):
        document = load_trajectory(path)
        document["runs"].append(
            {
                # History metadata, not a gated metric.
                "timestamp": time.time(),  # repro: noqa[DET001]
                "suite": run.suite,
                "filter": run.filter,
                "wall_time_s": run.wall_time_s,
                "failure_count": run.failure_count,
                "regression_count": run.regression_count,
                "benches": [
                    {
                        "name": b.name,
                        "status": b.status,
                        "wall_time_s": b.wall_time_s,
                        "baseline_status": b.baseline_status,
                        "metrics": dict(sorted(b.metrics.items())),
                    }
                    for b in run.benches
                ],
            }
        )
        write_json_atomic(path, document)
    return path
