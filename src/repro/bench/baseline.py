"""Committed benchmark baselines and tolerance-band comparison.

A baseline is one JSON file per bench under ``benchmarks/baselines/``:

.. code-block:: json

    {
      "schema_version": 1,
      "kind": "bench_baseline",
      "bench": "fig5_pipeline",
      "metrics": {
        "fig5/analytic/speedup_b128": {"value": 13.85, "rel_tol": 1e-6}
      }
    }

The tracked metrics are the *deterministic* ``metrics`` maps of the
bench documents (speedups, cycle counts, accuracies under pinned
seeds) — never wall-clock numbers, so the bands can be tight and a
same-platform rerun must land inside them exactly.  ``repro bench``
compares every run against the committed baseline and exits non-zero
when a metric leaves its band; ``repro bench --update-baselines``
rewrites the files from the current run after an intentional change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.telemetry import SCHEMA_VERSION
from repro.utils.validation import Number, check_document

#: Default relative tolerance stamped on generated baselines: metrics
#: are deterministic, so the band only absorbs float-accumulation
#: differences across interpreter/numpy versions.
DEFAULT_REL_TOL = 1e-6


@dataclass(frozen=True)
class Deviation:
    """One metric's comparison against its baseline band."""

    bench: str
    metric: str
    expected: Optional[float]
    actual: Optional[float]
    rel_tol: float
    abs_tol: float
    status: str  # "ok" | "regression" | "missing"

    def describe(self) -> str:
        if self.status == "missing":
            return (
                f"{self.bench}:{self.metric}: baseline expects "
                f"{self.expected!r} but the run did not produce it"
            )
        return (
            f"{self.bench}:{self.metric}: {self.actual!r} outside "
            f"band around {self.expected!r} "
            f"(rel_tol={self.rel_tol:g}, abs_tol={self.abs_tol:g})"
        )


def baseline_path(baseline_dir: Path, bench: str) -> Path:
    return Path(baseline_dir) / f"{bench}.json"


def load_baseline(baseline_dir: Path, bench: str) -> Optional[Dict[str, Any]]:
    """The committed baseline for ``bench``, or ``None`` if absent."""
    path = baseline_path(baseline_dir, bench)
    if not path.is_file():
        return None
    document = json.loads(path.read_text())
    validate_baseline(document)
    return document


_BASELINE_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "bench_baseline", "bench": str,
    "metrics": {
        str: {"value": Number, "rel_tol?": Number, "abs_tol?": Number},
    },
}


def validate_baseline(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid baseline."""
    check_document(document, _BASELINE_SHAPE, "bench_baseline")


def compare_metrics(
    bench: str,
    metrics: Dict[str, float],
    baseline: Dict[str, Any],
) -> List[Deviation]:
    """Every baseline metric checked against the run's ``metrics``.

    Metrics present in the run but absent from the baseline are
    ignored (new metrics are allowed to appear before the baseline is
    refreshed); metrics the baseline expects but the run lacks are
    reported as ``missing`` regressions.
    """
    deviations: List[Deviation] = []
    for name, band in sorted(baseline["metrics"].items()):
        expected = float(band["value"])
        rel_tol = float(band.get("rel_tol", DEFAULT_REL_TOL))
        abs_tol = float(band.get("abs_tol", 0.0))
        if name not in metrics:
            deviations.append(
                Deviation(bench, name, expected, None, rel_tol, abs_tol,
                          "missing")
            )
            continue
        actual = float(metrics[name])
        ok = math.isclose(
            actual, expected, rel_tol=rel_tol, abs_tol=abs_tol
        )
        deviations.append(
            Deviation(
                bench, name, expected, actual, rel_tol, abs_tol,
                "ok" if ok else "regression",
            )
        )
    return deviations


def write_baseline(
    baseline_dir: Path,
    bench: str,
    metrics: Dict[str, float],
) -> Path:
    """Write (or rewrite) one bench's baseline from measured metrics.

    Every metric gets the :data:`DEFAULT_REL_TOL` band; a band edited
    into the file by hand (``rel_tol``/``abs_tol``) is still honoured
    by :func:`compare_metrics` until the next rewrite.
    """
    baseline_dir = Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_baseline",
        "bench": bench,
        "metrics": {
            name: {"value": value, "rel_tol": DEFAULT_REL_TOL}
            for name, value in sorted(metrics.items())
        },
    }
    validate_baseline(document)
    path = baseline_path(baseline_dir, bench)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
