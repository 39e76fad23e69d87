"""``repro.checks`` — the determinism & contract linter.

An AST-based static-analysis subsystem that machine-checks the
repo-specific invariants every reproducibility claim rests on:
randomness routes through :mod:`repro.utils.rng` (RNG001), wall-clock
never touches a simulation path (DET001), emitted JSON documents are
stamped with ``schema_version`` and have a tested validator
(SCHEMA001), telemetry paths follow the counter grammar and observed
metrics carry a unit (TEL001), plus generic hygiene (PY001 mutable
defaults, PY002 float equality, PY003 builtin-shadowing parameters,
PY004 unused imports).
Each file is walked once, every node going to the rules that inspect
its type.

:mod:`repro.checks.project` adds the layering and concurrency rules:
event-loop blocking calls (CONC001) and non-fork-safe process-pool
captures (CONC003) per file, then a whole-program pass over an import
graph and symbol index of the package (:mod:`repro.checks.graph`) for
layer-DAG enforcement (ARCH001), unlocked thread-shared state
(CONC002) and SCHEMA001's validator half.  NOQA001 flags stale
suppressions.

Run it as ``repro check [--format json|sarif] [--select RULES]
[PATH ...]`` or from Python::

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
    canonical_path,
    check_paths,
    check_report,
    check_source,
    default_root,
    register,
    render_findings,
    suppressions,
    validate_check_report,
)
from repro.checks.graph import (
    LAYER_LABELS,
    LAYER_TABLE,
    ImportEdge,
    ImportGraph,
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
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "build_import_graph",
    "canonical_path",
    "check_paths",
    "check_report",
    "check_source",
    "default_root",
    "layer_of",
    "register",
    "render_findings",
    "rule_table",
    "sarif_document",
    "suppressions",
    "validate_check_report",
    "validate_sarif_document",
]
