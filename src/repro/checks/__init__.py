"""``repro.checks`` — the determinism & contract linter.

An AST-based static-analysis subsystem that machine-checks the
repo-specific invariants every reproducibility claim rests on:
randomness routes through :mod:`repro.utils.rng` (RNG001), wall-clock
never touches a simulation path (DET001), emitted JSON documents are
stamped with ``schema_version`` (SCHEMA001), telemetry paths follow
the counter grammar (TEL001) and metric names carry a unit (TEL002),
plus generic hygiene (PY001 mutable defaults, PY002 float equality,
PY003 builtin-shadowing parameters).

On top of the per-file rules sits a whole-program pass
(:mod:`repro.checks.project`) over an import graph and symbol index
of the package (:mod:`repro.checks.graph`): layer-DAG enforcement
(ARCH001), event-loop blocking calls (CONC001), unlocked
thread-shared state (CONC002), non-fork-safe process-pool captures
(CONC003), emitters without tested validators (SCHEMA002), and stale
suppressions (NOQA001).

Run it as ``repro check [--format json|sarif] [--select RULES]
[--baseline checks_baseline.json]`` or from Python::

    from repro import checks

    findings = checks.check_paths()        # the installed package
    findings = checks.check_source(code, path="repro/x.py")

Suppress one finding with ``# repro: noqa[RULE]`` on the flagged line
(bare ``# repro: noqa`` suppresses every rule there); NOQA001 flags
any pin that stops suppressing a real finding.  The committed tree is
self-hosting: ``repro check`` must report zero findings (pinned by
``tests/checks/test_selfhost.py``).
"""

from repro.checks.engine import (
    RULES,
    SCHEMA_VERSION,
    CheckConfig,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    apply_baseline,
    baseline_document,
    canonical_path,
    check_paths,
    check_report,
    check_source,
    default_root,
    load_baseline,
    register,
    render_findings,
    suppressions,
    validate_baseline_document,
    validate_check_report,
)
from repro.checks.graph import (
    LAYER_LABELS,
    LAYER_TABLE,
    ImportEdge,
    ImportGraph,
    ModuleInfo,
    build_import_graph,
    layer_of,
)
from repro.checks.project import ProjectIndex
from repro.checks.rules import rule_table
from repro.checks.sarif import (
    SARIF_VERSION,
    sarif_document,
    validate_sarif_document,
)

__all__ = [
    "LAYER_LABELS",
    "LAYER_TABLE",
    "RULES",
    "SARIF_VERSION",
    "SCHEMA_VERSION",
    "CheckConfig",
    "FileContext",
    "Finding",
    "ImportEdge",
    "ImportGraph",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "apply_baseline",
    "baseline_document",
    "build_import_graph",
    "canonical_path",
    "check_paths",
    "check_report",
    "check_source",
    "default_root",
    "layer_of",
    "load_baseline",
    "register",
    "render_findings",
    "rule_table",
    "sarif_document",
    "suppressions",
    "validate_baseline_document",
    "validate_check_report",
    "validate_sarif_document",
]
