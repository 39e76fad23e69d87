"""SARIF 2.1.0 export: document shape, validator, CLI, determinism."""

import contextlib
import io
import json
import textwrap

import pytest

from repro.checks import (
    SARIF_VERSION,
    Finding,
    check_report,
    sarif_document,
    validate_check_report,
    validate_sarif_document,
)
from repro.cli import main

FINDINGS = [
    Finding(
        rule="PY001",
        path="repro/core/sim.py",
        line=3,
        col=7,
        message="mutable default",
    ),
    Finding(
        rule="DET001",
        path="repro/core/sim.py",
        line=1,
        col=1,
        message="wall clock",
    ),
    Finding(
        rule="RNG001",
        path="other/loose.py",
        line=9,
        col=1,
        message="unseeded rng",
    ),
]


def test_sarif_document_shape_and_ordering():
    document = sarif_document(FINDINGS, rule_ids=["TEL001"])
    validate_sarif_document(document)
    assert document["version"] == SARIF_VERSION
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-check"
    # Rules that ran plus rules of the findings, sorted.
    assert [rule["id"] for rule in driver["rules"]] == [
        "DET001",
        "PY001",
        "RNG001",
        "TEL001",
    ]
    # Results sort by (path, line, col, rule); canonical repro/ paths
    # get the src/ repository prefix, out-of-package paths pass
    # through untouched.
    uris = [
        result["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        for result in run["results"]
    ]
    assert uris == [
        "other/loose.py",
        "src/repro/core/sim.py",
        "src/repro/core/sim.py",
    ]
    assert [r["ruleId"] for r in run["results"]] == [
        "RNG001",
        "DET001",
        "PY001",
    ]
    region = run["results"][1]["locations"][0]["physicalLocation"][
        "region"
    ]
    assert region == {"startLine": 1, "startColumn": 1}


def test_sarif_document_is_deterministic():
    once = json.dumps(sarif_document(FINDINGS), sort_keys=True)
    twice = json.dumps(
        sarif_document(list(reversed(FINDINGS))), sort_keys=True
    )
    assert once == twice


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(version="2.0.0"), "version"),
        (lambda d: d.pop("$schema"), "schema"),
        (lambda d: d.update(runs=[]), "at least one run"),
        (
            lambda d: d["runs"][0]["tool"]["driver"].update(rules=[]),
            "missing from",
        ),
        (
            lambda d: d["runs"][0]["results"][0].update(
                locations=[]
            ),
            "anchored",
        ),
        (
            lambda d: d["runs"][0]["results"][0]["locations"][0][
                "physicalLocation"
            ]["region"].update(startLine=0),
            "startLine",
        ),
    ],
)
def test_sarif_validator_rejects_malformed_documents(mutate, match):
    document = sarif_document(FINDINGS)
    mutate(document)
    with pytest.raises(ValueError, match=match):
        validate_sarif_document(document)


def test_check_report_validator_accepts_real_documents():
    document = check_report(FINDINGS, targets=["src"], select=None)
    validate_check_report(document)
    with pytest.raises(ValueError, match="finding_count"):
        validate_check_report({**document, "finding_count": 99})
    with pytest.raises(ValueError, match="kind"):
        validate_check_report({**document, "kind": "nope"})


# -- CLI --------------------------------------------------------------------


def test_cli_sarif_on_fixture(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            t = time.time()
            """
        )
    )
    assert main(["check", "--format", "sarif", str(path)]) == 1
    document = json.loads(capsys.readouterr().out)
    validate_sarif_document(document)
    (result,) = document["runs"][0]["results"]
    assert result["ruleId"] == "DET001"


@pytest.fixture(scope="module")
def clean_tree_sarif_runs():
    """Two ``repro check --format sarif`` runs over the committed tree.

    Shared by the tests below so tier-1 pays for the whole-program
    check twice, not once per test.
    """
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["check", "--format", "sarif"]) == 0
        outputs.append(buffer.getvalue())
    return outputs


def test_cli_sarif_clean_tree_advertises_rules(clean_tree_sarif_runs):
    document = json.loads(clean_tree_sarif_runs[0])
    validate_sarif_document(document)
    (run,) = document["runs"]
    assert run["results"] == []
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"ARCH001", "CONC002", "SCHEMA001", "NOQA001"} <= rule_ids


def test_cli_sarif_runs_are_byte_identical(clean_tree_sarif_runs):
    first, second = clean_tree_sarif_runs
    assert second == first
