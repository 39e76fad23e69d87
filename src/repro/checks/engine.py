"""Rule engine for the repo's determinism & contract linter.

The simulator's headline guarantee — bit-identical replays from one
integer seed — rests on conventions the type system cannot see: all
randomness flows through :mod:`repro.utils.rng`, wall-clock never
touches a simulation path, every emitted JSON document carries
``schema_version``.  This engine parses source files with :mod:`ast`
and hands each file to a registry of named rules
(:mod:`repro.checks.rules`), so those conventions are machine-checked
contracts instead of review lore.

Architecture
------------
* :class:`Rule` — one named contract (``RNG001``, ``DET001``, ...)
  with default *allowed paths* (files where the pattern is the
  implementation of the contract itself, e.g. ``repro/utils/rng.py``
  for the RNG rule).
* :class:`FileContext` — one parsed file (canonical path, AST,
  source) with a :meth:`FileContext.finding` factory.
* :class:`CheckConfig` — per-run rule selection and per-rule extra
  allowed paths.
* :func:`check_source` / :func:`check_paths` — run the selected rules
  over a source string or a file tree; findings suppressed by an
  inline ``# repro: noqa[RULE]`` comment on the flagged line are
  dropped (bare ``# repro: noqa`` suppresses every rule on the line).

Paths are canonicalised to a posix path rooted at the package
directory (``repro/core/training_sim.py``) for both allow-list
matching and reporting, so output is stable across checkouts.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

#: Version stamp on the ``repro check --format json`` document.
SCHEMA_VERSION = 1

#: Matches the inline suppression directive, bare ("repro: noqa") or
#: with a rule list ("repro: noqa[RNG001,DET001]"), inside a comment.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``file:line:col: RULE message`` (clickable in most shells)."""
        location = f"{self.path}:{self.line}:{self.col}"
        return f"{location}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class FileContext:
    """One parsed source file as seen by the rules."""

    def __init__(self, path: str, tree: ast.AST, source: str) -> None:
        self.path = path
        self.tree = tree
        self.source = source

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=rule.id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class: one named, individually-suppressible contract.

    Subclasses set :attr:`id` (``ABC123``), :attr:`summary` (one line,
    shown in docs and ``--list-rules``) and :attr:`allow` (path globs,
    rooted at the package directory, where the rule never applies),
    then implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    #: Default allowed-path globs (posix, rooted at ``repro/``).
    allow: Tuple[str, ...] = ()

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(
        self, path: str, extra_allow: Sequence[str] = ()
    ) -> bool:
        """Whether ``path`` is subject to this rule."""
        for pattern in tuple(self.allow) + tuple(extra_allow):
            if fnmatch.fnmatch(path, pattern):
                return False
        return True


class ProjectRule(Rule):
    """A rule that analyses the whole project, not one file.

    Subclasses implement :meth:`check_project` against a
    :class:`repro.checks.project.ProjectIndex`; the per-file
    :meth:`check` hook is a no-op so project rules are inert under
    :func:`check_source`.  Findings are still routed through the
    per-file suppression and allowed-path machinery by
    :func:`check_paths`.
    """

    def check(self, context: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Any) -> Iterator[Finding]:
        raise NotImplementedError


#: Registered rule classes by id, in registration order.
RULES: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} must set an id")
    if rule_class.id in RULES:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    RULES[rule_class.id] = rule_class
    return rule_class


@dataclass
class CheckConfig:
    """Per-run configuration.

    ``select`` limits the run to the named rules (default: all
    registered).  ``allow`` maps a rule id to *extra* allowed-path
    globs merged with the rule's own defaults.
    """

    select: Optional[Sequence[str]] = None
    allow: Mapping[str, Sequence[str]] = field(default_factory=dict)

    def rules(self) -> List[Rule]:
        """Instantiate the selected rules, preserving registry order."""
        if self.select is None:
            return [rule_class() for rule_class in RULES.values()]
        unknown = [rule for rule in self.select if rule not in RULES]
        if unknown:
            raise ValueError(
                f"unknown rule(s) {sorted(unknown)}; registered: "
                f"{sorted(RULES)}"
            )
        wanted = set(self.select)
        return [
            rule_class()
            for rule_id, rule_class in RULES.items()
            if rule_id in wanted
        ]


def suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line noqa map: line -> suppressed rule ids (``None`` = all).

    Only comment tokens are considered, so the directive inside a
    string literal does not suppress anything.
    """
    table: Dict[int, Optional[FrozenSet[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            token for token in tokens if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table
    for token in comments:
        match = _NOQA_RE.search(token.string)
        if not match:
            continue
        line = token.start[0]
        rules = match.group("rules")
        if rules is None:
            table[line] = None
        else:
            named = frozenset(
                rule.strip() for rule in rules.split(",") if rule.strip()
            )
            existing = table.get(line, frozenset())
            if existing is None:
                continue
            table[line] = named | existing
    return table


def _suppressed(
    finding: Finding, table: Mapping[int, Optional[FrozenSet[str]]]
) -> bool:
    rules = table.get(finding.line, frozenset())
    return rules is None or finding.rule in rules


def canonical_path(path: Path) -> str:
    """Posix path rooted at the innermost ``repro`` package directory.

    ``/home/x/src/repro/core/mapping.py`` -> ``repro/core/mapping.py``.
    Paths outside a ``repro`` package keep their name relative to the
    current directory (or stay absolute).
    """
    parts = path.resolve().parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def check_source(
    source: str,
    path: str = "repro/<string>.py",
    config: Optional[CheckConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the selected rules over one source string.

    ``path`` participates in allowed-path matching, so tests can
    exercise the path exemptions.  A file that does not parse yields a
    single pseudo-finding under rule id ``PARSE``.
    """
    config = config or CheckConfig()
    if rules is None:
        rules = config.rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="PARSE",
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                message=f"file does not parse: {error.msg}",
            )
        ]
    context = FileContext(path, tree, source)
    table = suppressions(source)
    findings = []
    for rule in rules:
        if not rule.applies_to(path, config.allow.get(rule.id, ())):
            continue
        for finding in rule.check(context):
            if not _suppressed(finding, table):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def default_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_python_files(target: Path) -> Iterator[Path]:
    """The ``.py`` files under ``target`` (or ``target`` itself)."""
    if target.is_file():
        yield target
        return
    yield from sorted(target.rglob("*.py"))


def check_paths(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[CheckConfig] = None,
) -> List[Finding]:
    """Run the checker over file-system targets (default: the package).

    File rules run per file; :class:`ProjectRule` subclasses run once
    per directory target over a whole-project index.  Suppressions are
    applied to both, and every suppression that never fired is handed
    to the ``NOQA001`` audit so stale pins surface as findings.

    Returns every unsuppressed finding, sorted by location.  Raises
    :class:`FileNotFoundError` for a missing target and
    :class:`ValueError` for an unknown rule in ``config.select``.
    """
    config = config or CheckConfig()
    rules = config.rules()
    file_rules = [
        rule for rule in rules if not isinstance(rule, ProjectRule)
    ]
    project_rules = [
        rule for rule in rules if isinstance(rule, ProjectRule)
    ]
    targets = [Path(p) for p in paths] if paths else [default_root()]
    findings: List[Finding] = []
    raw: List[Finding] = []
    tables: Dict[str, Dict[int, Optional[FrozenSet[str]]]] = {}
    for target in targets:
        if not target.exists():
            raise FileNotFoundError(f"no such file or directory: {target}")
        for source_file in iter_python_files(target):
            path = canonical_path(source_file)
            if path in tables:
                continue
            source = source_file.read_text()
            tables[path] = suppressions(source)
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                findings.append(
                    Finding(
                        rule="PARSE",
                        path=path,
                        line=error.lineno or 1,
                        col=(error.offset or 0) + 1,
                        message=f"file does not parse: {error.msg}",
                    )
                )
                continue
            context = FileContext(path, tree, source)
            for rule in file_rules:
                if not rule.applies_to(
                    path, config.allow.get(rule.id, ())
                ):
                    continue
                raw.extend(rule.check(context))
    if project_rules:
        from repro.checks.project import ProjectIndex

        for target in targets:
            if not Path(target).is_dir():
                continue
            project = ProjectIndex.build(Path(target).resolve())
            for rule in project_rules:
                for finding in rule.check_project(project):
                    if rule.applies_to(
                        finding.path, config.allow.get(rule.id, ())
                    ):
                        raw.append(finding)
    # Apply suppressions, remembering which pins actually fired so the
    # NOQA001 audit can flag the rest as stale.
    used: Dict[Tuple[str, int], set] = {}
    for finding in raw:
        table = tables.get(finding.path, {})
        if _suppressed(finding, table):
            used.setdefault(
                (finding.path, finding.line), set()
            ).add(finding.rule)
        else:
            findings.append(finding)
    active = {rule.id for rule in rules}
    for rule in rules:
        audit = getattr(rule, "audit", None)
        if audit is None:
            continue
        for path in sorted(tables):
            if not rule.applies_to(path, config.allow.get(rule.id, ())):
                continue
            findings.extend(
                audit(
                    path,
                    tables[path],
                    used,
                    active,
                    set(RULES),
                    config.select is None,
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def check_report(
    findings: Sequence[Finding],
    targets: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The ``repro check --format json`` document."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "targets": list(targets or []),
        "rules": sorted(select) if select is not None else sorted(RULES),
        "finding_count": len(findings),
        "counts": dict(sorted(counts.items())),
        "findings": [finding.to_dict() for finding in findings],
    }


def validate_check_report(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a check report."""
    if document.get("kind") != "check_report":
        raise ValueError(
            f"not a check_report: kind={document.get('kind')!r}"
        )
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported check_report schema_version "
            f"{document.get('schema_version')!r}"
        )
    findings = document.get("findings")
    if not isinstance(findings, list):
        raise ValueError("check_report findings must be a list")
    for entry in findings:
        for key in ("rule", "path", "message"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"finding {key} must be a string")
        for key in ("line", "col"):
            if not isinstance(entry.get(key), int):
                raise ValueError(f"finding {key} must be an int")
    if document.get("finding_count") != len(findings):
        raise ValueError("finding_count disagrees with findings")
    counts = document.get("counts")
    if not isinstance(counts, dict):
        raise ValueError("check_report counts must be a dict")
    tally: Dict[str, int] = {}
    for entry in findings:
        tally[entry["rule"]] = tally.get(entry["rule"], 0) + 1
    if counts != tally:
        raise ValueError("counts disagrees with findings")


# -- baseline ratchet -------------------------------------------------------
#
# A baseline is the set of findings a tree is *known* to have: matched
# findings are muted so new code can adopt a rule incrementally, and
# entries that no longer fire are reported as stale so the file only
# ever shrinks.  Fingerprints are (rule, path, message) — line numbers
# are excluded so unrelated edits do not churn the file.


def baseline_document(
    findings: Sequence[Finding],
) -> Dict[str, Any]:
    """A ``checks_baseline.json`` document muting ``findings``."""
    entries = sorted(
        {(f.rule, f.path, f.message) for f in findings}
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_baseline",
        "entries": [
            {"rule": rule, "path": path, "message": message}
            for rule, path, message in entries
        ],
    }


def validate_baseline_document(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a check baseline."""
    if document.get("kind") != "check_baseline":
        raise ValueError(
            f"not a check_baseline: kind={document.get('kind')!r}"
        )
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported check_baseline schema_version "
            f"{document.get('schema_version')!r}"
        )
    entries = document.get("entries")
    if not isinstance(entries, list):
        raise ValueError("check_baseline entries must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("baseline entry must be an object")
        for key in ("rule", "path", "message"):
            if not isinstance(entry.get(key), str):
                raise ValueError(
                    f"baseline entry {key} must be a string"
                )


def load_baseline(path: Path) -> Dict[str, Any]:
    """Read and validate a baseline file."""
    import json

    document = json.loads(Path(path).read_text())
    validate_baseline_document(document)
    return document


def apply_baseline(
    findings: Sequence[Finding], baseline: Mapping[str, Any]
) -> Tuple[List[Finding], List[Dict[str, str]]]:
    """Split findings against a baseline.

    Returns ``(fresh, stale)``: findings not muted by the baseline,
    and baseline entries that no longer fire (the ratchet — stale
    entries must be deleted from the file).
    """
    muted = {
        (entry["rule"], entry["path"], entry["message"])
        for entry in baseline["entries"]
    }
    fresh = [
        finding
        for finding in findings
        if (finding.rule, finding.path, finding.message) not in muted
    ]
    fired = {(f.rule, f.path, f.message) for f in findings}
    stale = [
        entry
        for entry in baseline["entries"]
        if (entry["rule"], entry["path"], entry["message"])
        not in fired
    ]
    return fresh, stale


def render_findings(
    findings: Sequence[Finding], checked_rules: Iterable[str]
) -> str:
    """Human rendering: one location line per finding, then a tally."""
    rule_ids = sorted(checked_rules)
    if not findings:
        return f"repro check: clean ({', '.join(rule_ids)})"
    lines = [finding.format() for finding in findings]
    lines.append(
        f"repro check: {len(findings)} finding(s) across "
        f"{len({f.path for f in findings})} file(s)"
    )
    return "\n".join(lines)
