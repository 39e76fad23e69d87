"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
records the series it produced under ``benchmarks/results/``
(EXPERIMENTS.md is written from these files).  Each bench also records
machine-readable ``BENCH_<name>.json`` documents (schema:
:func:`repro.telemetry.bench_document`) next to the text tables and
returns them to ``repro bench``, which gates their deterministic
``metrics`` maps against ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, lines: Iterable[str]) -> str:
    """Write a result table to ``benchmarks/results/<name>.txt``; return it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


def record_json(
    name: str, documents: Union[Dict, List[Dict]]
) -> List[Dict]:
    """Write validated bench records to ``results/BENCH_<name>.json``.

    ``documents`` is one :func:`repro.telemetry.bench_document` (or a
    list of them — one per measured configuration); each is validated
    against the pinned schema before writing, so a drifting document
    shape fails the benchmark rather than silently corrupting the
    perf-trajectory record.  Returns the validated list, which the
    bench's entry point hands back to ``repro bench``.
    """
    from repro.telemetry import validate_bench_document

    RESULTS_DIR.mkdir(exist_ok=True)
    if isinstance(documents, dict):
        documents = [documents]
    for document in documents:
        validate_bench_document(document)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(documents, indent=2, sort_keys=True) + "\n")
    return documents


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> list:
    """Fixed-width table lines from headers and value rows."""
    header_line = "  ".join(f"{h:>14s}" for h in headers)
    lines = [header_line, "-" * len(header_line)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>14.4g}")
            else:
                cells.append(f"{str(value):>14s}")
        lines.append("  ".join(cells))
    return lines
