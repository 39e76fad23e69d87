"""Shared helpers: locations, statistics, memory, metric names."""

from __future__ import annotations

import math
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: traces, sweep caches.
WORK = ROOT / ".perfbench"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``.

    ``attempted`` counts the operations and checks made, ``failed``
    those that failed or gave a wrong output; ``problems`` says why.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def program_path() -> Path:
    """Make ``src/`` importable; fail if the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SRC


def cpu_s() -> float:
    """CPU seconds used so far by this process."""
    return time.process_time()


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's ended children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB of ``pid`` (default: this process)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def check_metric_names(metrics: Dict[str, object]) -> None:
    bad = sorted(name for name in metrics if not METRIC_NAME.match(name))
    if bad:
        raise BenchmarkError(f"malformed metric name(s): {bad}")
