"""``repro check`` CLI: exit codes, formats, selection, fixtures.

The acceptance contract: a seeded fixture violation for *each* rule
exits non-zero, and the committed tree exits zero.
"""

import json
import textwrap

import pytest

from repro.cli import main

#: One minimal violating fixture per rule.
VIOLATIONS = {
    "RNG001": """
        import numpy as np

        r = np.random.default_rng(0)
        """,
    "DET001": """
        import time

        t = time.time()
        """,
    "SCHEMA001": """
        def fault_report():
            return {"cells": 1}
        """,
    "TEL001": """
        def f(tel):
            tel.count("Bad Path", 1)
        """,
    "PY001": """
        def f(x=[]):
            return x
        """,
    "PY002": """
        def f(x):
            return x == 0.5
        """,
    "PY003": """
        def f(filter):
            return filter
        """,
}


def write_fixture(tmp_path, rule_id):
    path = tmp_path / f"violates_{rule_id.lower()}.py"
    path.write_text(textwrap.dedent(VIOLATIONS[rule_id]))
    return path


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_each_rule_fails_its_fixture(tmp_path, capsys, rule_id):
    path = write_fixture(tmp_path, rule_id)
    exit_code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert rule_id in out


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_select_isolates_one_rule(tmp_path, capsys, rule_id):
    path = write_fixture(tmp_path, rule_id)
    assert main(["check", "--select", rule_id, str(path)]) == 1
    other = "PY001" if rule_id != "PY001" else "PY002"
    capsys.readouterr()
    assert main(["check", "--select", other, str(path)]) == 0


def test_committed_tree_exits_zero(capsys):
    assert main(["check"]) == 0
    assert "clean" in capsys.readouterr().out


def test_json_format_document(tmp_path, capsys):
    path = write_fixture(tmp_path, "PY001")
    exit_code = main(["check", "--format", "json", str(path)])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert document["kind"] == "check_report"
    assert document["schema_version"] == 1
    assert document["finding_count"] == 1
    assert document["counts"] == {"PY001": 1}
    finding = document["findings"][0]
    assert finding["rule"] == "PY001"
    assert finding["line"] == 2  # fixture has a leading blank line
    # --json is shorthand for --format json
    capsys.readouterr()
    assert main(["check", "--json", str(path)]) == 1
    assert (
        json.loads(capsys.readouterr().out)["finding_count"] == 1
    )


def test_clean_json_on_committed_tree(capsys):
    assert main(["check", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["finding_count"] == 0
    assert document["findings"] == []
    assert set(document["rules"]) == {
        "RNG001", "DET001", "SCHEMA001", "TEL001", "TEL002",
        "PY001", "PY002", "PY003",
        "ARCH001", "CONC001", "CONC002", "CONC003", "SCHEMA002",
        "NOQA001",
    }


def test_unknown_rule_exits_two(capsys):
    assert main(["check", "--select", "NOPE01"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in VIOLATIONS:
        assert rule_id in out


def test_noqa_suppresses_via_cli(tmp_path, capsys):
    path = tmp_path / "suppressed.py"
    path.write_text(
        "import numpy as np\n"
        "r = np.random.default_rng(0)  # repro: noqa[RNG001]\n"
    )
    assert main(["check", str(path)]) == 0


def test_check_is_not_profile_wrappable(capsys):
    assert main(["profile", "check"]) == 2
    assert "cannot wrap" in capsys.readouterr().err
