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
  for the RNG rule) and the AST node types it inspects.
* :class:`FileContext` — one parsed file (canonical path, AST,
  source, module name, import-alias table) with a
  :meth:`FileContext.finding` factory; the per-file rules and the
  whole-program index share it.
* :class:`CheckConfig` — per-run rule selection.
* :func:`check_source` / :func:`check_paths` — run the selected rules
  over a source string or a file tree; findings suppressed by an
  inline ``# repro: noqa[RULE]`` comment on the flagged line are
  dropped (bare ``# repro: noqa`` suppresses every rule on the line).

Each file is walked once: every node goes to the rules that name its
type, so adding a rule adds no pass over the tree.

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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
    Set,
    Tuple,
    Type,
    Union,
)

from repro.utils.validation import check_document

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


@dataclass
class FileContext:
    """One parsed source file, as the rules and the project index see it."""

    path: str  #: canonical posix path (``repro/serve/server.py``)
    tree: ast.Module
    source: str
    #: dotted module name (``repro.serve.server``) inside a project
    #: scan; empty for a file checked on its own
    name: str = ""

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> canonical dotted import target, built once.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
        random as nr`` maps ``nr -> numpy.random``; ``import
        numpy.random`` binds only ``numpy``.
        """
        table: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        table[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

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
    shown in docs and ``--list-rules``), :attr:`allow` (path globs,
    rooted at the package directory, where the rule never applies) and
    :attr:`nodes`, then implement :meth:`visit`.
    """

    id: str = ""
    summary: str = ""
    #: Default allowed-path globs (posix, rooted at ``repro/``).
    allow: Tuple[str, ...] = ()
    #: AST node types handed to :meth:`visit` during the file's walk.
    nodes: Tuple[Type[ast.AST], ...] = ()

    def visit(self, context: FileContext, node: ast.AST) -> Iterator[Finding]:
        """Findings at one node of a type named in :attr:`nodes`."""
        raise NotImplementedError

    def finish(self, context: FileContext) -> Iterator[Finding]:
        """Findings due once the file's walk is over (a rule that
        judges the whole file records what it needs in :meth:`visit`)."""
        return iter(())

    def applies_to(self, path: str) -> bool:
        """Whether ``path`` is subject to this rule."""
        return not any(
            fnmatch.fnmatch(path, pattern) for pattern in self.allow
        )


class ProjectRule(Rule):
    """A rule that analyses the whole project, not one file.

    Subclasses implement :meth:`check_project` against a
    :class:`repro.checks.project.ProjectIndex`; a project rule names
    no :attr:`nodes` unless it also has a per-file half, so it is
    inert under :func:`check_source`.  Findings are still routed
    through the per-file suppression and allowed-path machinery by
    :func:`check_paths`.
    """

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
    registered).
    """

    select: Optional[Sequence[str]] = None

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


def package_root(path: Path) -> Optional[Path]:
    """The innermost ``repro`` directory holding ``path`` (inclusive)."""
    resolved = path.resolve()
    for candidate in (resolved, *resolved.parents):
        if candidate.name == "repro":
            return candidate
    return None


def canonical_path(path: Path) -> str:
    """Posix path rooted at the innermost ``repro`` package directory.

    ``/home/x/src/repro/core/mapping.py`` -> ``repro/core/mapping.py``.
    Paths outside a ``repro`` package keep their name relative to the
    current directory (or stay absolute).
    """
    root = package_root(path)
    if root is not None:
        return path.resolve().relative_to(root.parent).as_posix()
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_file(
    path: str, source: str, name: str = ""
) -> Union[FileContext, Finding]:
    """The parsed record of one file, or its ``PARSE`` pseudo-finding."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return Finding(
            rule="PARSE",
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 0) + 1,
            message=f"file does not parse: {error.msg}",
        )
    return FileContext(path, tree, source, name)


def _check_file(
    context: FileContext, rules: Sequence[Rule]
) -> Iterator[Finding]:
    """Findings of the per-file rules on one record, before noqa.

    One :func:`ast.walk` hands every node to the rules naming its type.
    """
    active = [
        rule for rule in rules if rule.nodes and rule.applies_to(context.path)
    ]
    if not active:
        return
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in active:
        for node_type in rule.nodes:
            dispatch.setdefault(node_type, []).append(rule)
    for node in ast.walk(context.tree):
        for rule in dispatch.get(type(node), ()):
            yield from rule.visit(context, node)
    for rule in active:
        yield from rule.finish(context)


#: The stale-suppression audit's rule id (registered in
#: :mod:`repro.checks.project`); :func:`check_paths` runs the audit.
AUDIT_RULE = "NOQA001"


def _stale_suppressions(
    path: str,
    table: Mapping[int, Optional[FrozenSet[str]]],
    used: Mapping[Tuple[str, int], Set[str]],
    active: Set[str],
    full_run: bool,
) -> Iterator[Finding]:
    """``NOQA001`` findings for the pins in ``table`` that never fired.

    ``used`` maps ``(path, line)`` to the rules a suppression actually
    muted this run.  Named pins are only judged when their rule was
    active; bare pins only on full (unselected) runs — a partial
    ``--select`` cannot prove a pin stale.
    """

    def stale(line: int, message: str) -> Finding:
        return Finding(AUDIT_RULE, path, line, 1, message)

    for line in sorted(table):
        rules = table[line]
        fired = used.get((path, line), set())
        if rules is None:
            if full_run and not fired:
                yield stale(
                    line,
                    "bare '# repro: noqa' suppresses nothing on this "
                    "line; remove it",
                )
            continue
        for rule_id in sorted(rules):
            if rule_id == AUDIT_RULE:
                continue
            if rule_id not in RULES:
                yield stale(
                    line,
                    f"'# repro: noqa[{rule_id}]' names unknown rule "
                    f"{rule_id!r}; fix or remove the pin",
                )
            elif rule_id in active and rule_id not in fired:
                yield stale(
                    line,
                    f"unused suppression '# repro: noqa[{rule_id}]' -- "
                    f"no {rule_id} finding on this line; remove the "
                    "stale pin",
                )


def _location(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def check_source(
    source: str,
    path: str = "repro/<string>.py",
    config: Optional[CheckConfig] = None,
) -> List[Finding]:
    """Run the selected per-file rules over one source string.

    ``path`` participates in allowed-path matching, so tests can
    exercise the path exemptions.  A file that does not parse yields a
    single pseudo-finding under rule id ``PARSE``.
    """
    config = config or CheckConfig()
    context = parse_file(path, source)
    if isinstance(context, Finding):
        return [context]
    table = suppressions(source)
    findings = [
        finding
        for finding in _check_file(context, config.rules())
        if not _suppressed(finding, table)
    ]
    return sorted(findings, key=_location)


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

    Every file is read and parsed once, keyed by its canonical path,
    so overlapping targets check each file once.  File rules run on
    every targeted file.  :class:`ProjectRule` subclasses run once
    over one index of the enclosing package of every directory target
    (the innermost ``repro`` directory, else the directory itself),
    and report only findings in files under a directory target.
    Suppressions are applied to both, and when ``NOQA001`` is selected
    every suppression that never fired surfaces as a stale-pin finding.

    Returns every unsuppressed finding, sorted by location.  Raises
    :class:`FileNotFoundError` for a missing target and
    :class:`ValueError` for an unknown rule in ``config.select``.
    """
    from repro.checks.graph import module_name_for
    from repro.checks.project import ProjectIndex

    config = config or CheckConfig()
    rules = config.rules()
    targets = [Path(p) for p in paths] if paths else [default_root()]
    for target in targets:
        if not target.exists():
            raise FileNotFoundError(f"no such file or directory: {target}")
    scopes = sorted(
        {package_root(t) or t.resolve() for t in targets if t.is_dir()}
    )
    sources: Dict[str, str] = {}
    parsed: Dict[str, Union[FileContext, Finding]] = {}

    def load(file: Path, name: str = "") -> str:
        path = canonical_path(file)
        if path not in sources:
            sources[path] = file.read_text()
            parsed[path] = parse_file(path, sources[path], name)
        return path

    for scope in scopes:
        for source_file in iter_python_files(scope):
            load(source_file, module_name_for(scope, source_file))
    #: targeted canonical path -> whether a directory target holds it
    targeted: Dict[str, bool] = {}
    for target in targets:
        for source_file in iter_python_files(target):
            path = load(source_file)
            targeted[path] = targeted.get(path, False) or target.is_dir()
    findings: List[Finding] = []
    raw: List[Finding] = []
    tables: Dict[str, Dict[int, Optional[FrozenSet[str]]]] = {}
    for path in targeted:
        tables[path] = suppressions(sources[path])
        context = parsed[path]
        if isinstance(context, Finding):
            findings.append(context)
        else:
            raw.extend(_check_file(context, rules))
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    if scopes and project_rules:
        project = ProjectIndex.build(
            {
                context.name: context
                for context in parsed.values()
                if isinstance(context, FileContext) and context.name
            },
            scopes,
        )
        for rule in project_rules:
            for finding in rule.check_project(project):
                if targeted.get(finding.path) and rule.applies_to(
                    finding.path
                ):
                    raw.append(finding)
    # Apply suppressions, remembering which pins actually fired so the
    # NOQA001 audit can flag the rest as stale.
    used: Dict[Tuple[str, int], Set[str]] = {}
    for finding in raw:
        if _suppressed(finding, tables[finding.path]):
            used.setdefault(
                (finding.path, finding.line), set()
            ).add(finding.rule)
        else:
            findings.append(finding)
    active = {rule.id for rule in rules}
    if AUDIT_RULE in active:
        for path in sorted(tables):
            findings.extend(
                _stale_suppressions(
                    path, tables[path], used, active, config.select is None
                )
            )
    return sorted(findings, key=_location)


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


_CHECK_REPORT_SHAPE = {
    "kind": "check_report", "schema_version": SCHEMA_VERSION,
    "findings": [
        {"rule": str, "path": str, "message": str, "line": int, "col": int}
    ],
    "finding_count": int, "counts": {str: int},
}


def validate_check_report(document: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a check report."""
    check_document(document, _CHECK_REPORT_SHAPE, "check_report")
    findings = document["findings"]
    if document["finding_count"] != len(findings):
        raise ValueError("finding_count disagrees with findings")
    tally = Counter(entry["rule"] for entry in findings)
    if document["counts"] != dict(tally):
        raise ValueError("counts disagrees with findings")


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
