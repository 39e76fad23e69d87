"""SARIF 2.1.0 export for ``repro check`` findings.

SARIF (Static Analysis Results Interchange Format) is what GitHub
code scanning ingests, so ``repro check --format sarif`` lets CI
annotate PR diffs with findings in place.  The document here is the
minimal valid subset: one run, one tool driver carrying the rule
metadata, one result per finding.

Determinism contract: the document is a pure function of the
findings — rules and results are emitted in sorted order and nothing
wall-clock (invocation times, absolute paths, machine names) is
included, so two same-tree runs serialize byte-identically.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.checks.engine import RULES, Finding
from repro.utils.validation import (
    POSITIVE_INT,
    Where,
    check_document,
    non_empty,
)

#: The SARIF spec version this exporter targets (the document's own
#: schema stamp — SARIF defines the envelope, so there is no separate
#: ``schema_version`` key).
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "repro-check"

_TOOL_INFO_URI = (
    "https://github.com/paper-repro/reram-accelerator"
    "/blob/main/docs/TOUR.md"
)


def _rule_metadata(rule_ids: Iterable[str]) -> List[Dict[str, Any]]:
    entries = []
    for rule_id in sorted(set(rule_ids)):
        rule_class = RULES.get(rule_id)
        summary = rule_class.summary if rule_class else rule_id
        entries.append(
            {
                "id": rule_id,
                "shortDescription": {"text": summary},
            }
        )
    return entries


def sarif_document(
    findings: Sequence[Finding],
    rule_ids: Iterable[str] = (),
    uri_prefix: str = "src/",
) -> Dict[str, Any]:
    """The findings as a SARIF 2.1.0 log.

    ``rule_ids`` names the rules that *ran* (so a clean run still
    advertises its rule set); rules of the findings themselves are
    always included.  ``uri_prefix`` maps canonical finding paths
    (``repro/...``) onto repository paths (``src/repro/...``) so
    GitHub anchors annotations on the right files.
    """
    all_rules = set(rule_ids) | {f.rule for f in findings}
    results = []
    ordered = sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    for finding in ordered:
        uri = (
            f"{uri_prefix}{finding.path}"
            if finding.path.startswith("repro/")
            else finding.path
        )
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": uri,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
            }
        )
    return {  # repro: noqa[SCHEMA001] -- SARIF's envelope is external
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_INFO_URI,
                        "rules": _rule_metadata(all_rules),
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


_SARIF_SHAPE = {
    "version": SARIF_VERSION,
    "$schema": str,
    "runs": Where([{
        "tool": {"driver": {
            "name": str,
            "rules": [{"id": str, "shortDescription": {"text": str}}],
        }},
        "results": [{
            "ruleId": str,
            "message": {"text": str},
            "locations": Where([{"physicalLocation": {
                "artifactLocation": {"uri": non_empty(str)},
                "region": {"startLine": POSITIVE_INT},
            }}], len, "anchored locations"),
        }],
    }], len, "at least one run"),
}


def validate_sarif_document(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a SARIF log we emit.

    Structural validation of the subset :func:`sarif_document`
    produces — version, tool driver, rule metadata, and anchored
    locations per result — plus the cross-reference that every
    result's ``ruleId`` appears in the driver's rule table.
    """
    check_document(document, _SARIF_SHAPE, "sarif")
    for run in document["runs"]:
        known = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        for result in run["results"]:
            if result["ruleId"] not in known:
                raise ValueError(
                    f"SARIF result rule {result['ruleId']!r} missing from "
                    "driver rule metadata"
                )


__all__ = [
    "SARIF_VERSION",
    "sarif_document",
    "validate_sarif_document",
]
