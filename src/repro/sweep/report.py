"""Merged, schema-versioned ``sweep_report`` documents.

:func:`sweep_report` turns one :class:`~repro.sweep.executor.SweepRun`
into a JSON document that is a pure function of the cell list: cells
appear in input order and carry only their deterministic identity
(kind, hash, seed, spec) and result.  Execution facts — worker count,
cache hits, shard order — are deliberately absent (they live in
``SweepRun.stats``), which is what makes the serialized report
**byte-identical** for any worker count or shard order.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.sweep.cells import validate_cell_payload
from repro.sweep.executor import SweepRun
from repro.telemetry import SCHEMA_VERSION
from repro.utils.validation import check_document


def sweep_report(
    run: SweepRun, params: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The merged deterministic document for one sweep run.

    ``params`` (optional) records the sweep-level request — workload,
    axis, seed, whatever produced the cell list — so a report is
    self-describing.  It must itself be deterministic data; nothing
    about this particular execution belongs in it.
    """
    cells = []
    for cell, payload in zip(run.cells, run.payloads):
        validate_cell_payload(payload, cell)
        entry = {
            "kind": payload["kind"],
            "config_hash": payload["config_hash"],
            "seed": payload["seed"],
            "spec": payload["spec"],
            "result": payload["result"],
        }
        # Priced event counters are deterministic data, so the energy
        # summary (when the cell emitted events) rides along without
        # weakening the byte-identity contract.
        if "energy" in payload:
            entry["energy"] = payload["energy"]
        cells.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep_report",
        "sweep": dict(params) if params is not None else {},
        "cell_count": len(cells),
        "cells": cells,
    }


_SWEEP_REPORT_SHAPE = {
    "schema_version": SCHEMA_VERSION, "kind": "sweep_report",
    "sweep": dict, "cell_count": int,
    "cells": [{
        "kind": str, "config_hash": str, "seed": int, "spec": dict,
        "result": dict, "energy?": dict,
    }],
}


def validate_sweep_report(report: Mapping[str, Any]) -> Mapping[str, Any]:
    """Structural check of a ``sweep_report`` document; returns it."""
    check_document(report, _SWEEP_REPORT_SHAPE, "sweep_report")
    if report["cell_count"] != len(report["cells"]):
        raise ValueError("sweep report cell_count does not match cells")
    return report


def sweep_summary(report: Mapping[str, Any]) -> str:
    """Short human-readable rendering of a sweep report."""
    validate_sweep_report(report)
    lines = [f"sweep: {report['cell_count']} cell(s)"]
    for sweep_key in sorted(report["sweep"]):
        lines.append(f"  {sweep_key} = {report['sweep'][sweep_key]}")
    for cell in report["cells"]:
        name = cell["spec"].get("name") or cell["config_hash"][:12]
        lines.append(
            f"  [{cell['kind']}] {name} seed={cell['seed']} "
            f"hash={cell['config_hash'][:12]}"
        )
    return "\n".join(lines)


__all__ = ["sweep_report", "sweep_summary", "validate_sweep_report"]
