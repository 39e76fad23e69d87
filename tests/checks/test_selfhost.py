"""Self-hosting: the committed tree passes its own contract linter.

This is the tier-1 version of the CI lint gate — a contract
regression (stray ``np.random``, un-stamped document, wall-clock in a
simulation path, ...) fails the plain pytest run even on machines
that never execute the CI lint job.
"""

from pathlib import Path

from repro import checks


def test_package_tree_is_clean():
    findings = checks.check_paths()
    assert findings == [], "\n" + "\n".join(
        finding.format() for finding in findings
    )


def test_default_root_is_the_package():
    root = checks.default_root()
    assert root.name == "repro"
    assert (root / "utils" / "rng.py").is_file()


def test_every_registered_rule_ran_against_the_tree():
    # The clean result above must come from all rules being active,
    # not from an accidental empty registry or selection.
    assert set(checks.RULES) == {
        "RNG001",
        "DET001",
        "SCHEMA001",
        "TEL001",
        "TEL002",
        "PY001",
        "PY002",
        "PY003",
        "ARCH001",
        "CONC001",
        "CONC002",
        "CONC003",
        "SCHEMA002",
        "NOQA001",
    }


def test_canonical_paths_are_package_rooted():
    source_file = checks.default_root() / "core" / "mapping.py"
    assert checks.canonical_path(source_file) == "repro/core/mapping.py"
    assert checks.canonical_path(Path("repro/cli.py")).endswith(
        "repro/cli.py"
    )


def test_known_suppressions_are_intentional():
    # The bench runner measures wall time by design, and the Chrome
    # trace-event and SARIF exporters emit externally specified
    # documents with no room for a schema_version stamp; those are the
    # only noqa directives in the tree right now.  New suppressions
    # are allowed, but must be deliberate: this pin makes any new
    # '# repro: noqa' show up in review (and NOQA001 fails the run if
    # one of these ever stops suppressing a real finding).
    suppressed = {}
    for source_file in sorted(checks.default_root().rglob("*.py")):
        table = checks.suppressions(source_file.read_text())
        if table:
            rules = set()
            for line_rules in table.values():
                rules |= {"*"} if line_rules is None else set(line_rules)
            suppressed[checks.canonical_path(source_file)] = rules
    assert suppressed == {
        "repro/bench/runner.py": {"DET001"},
        "repro/checks/sarif.py": {"SCHEMA001"},
        "repro/telemetry/export.py": {"SCHEMA001"},
    }
