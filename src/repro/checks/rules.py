"""The named per-file contracts enforced by ``repro check``.

Each rule encodes one repo-specific invariant the reproducibility
story depends on.  Rules are registered with
:func:`repro.checks.engine.register` and individually suppressible
with ``# repro: noqa[RULE]`` on the flagged line.  Each names the AST
node types it inspects; the engine walks a file once and hands every
node to the rules that asked for its type.  SCHEMA001 also judges the
emitters its walk finds against the whole-program index.

========  ==========================================================
RNG001    randomness outside :mod:`repro.utils.rng` (``np.random``
          distributions / ``default_rng`` / the stdlib ``random``
          module); all streams must come from ``new_rng`` /
          ``spawn_rngs`` / ``derive_seed``.
DET001    wall-clock (``time.time`` / ``perf_counter`` /
          ``datetime.now`` ...) outside ``repro/telemetry/`` and the
          ``repro/cli.py`` timing shims; simulation results must not
          depend on the host clock.
SCHEMA001 a public ``*_report`` / ``*_document`` / ``report``
          function returning a JSON dict literal without a
          ``schema_version`` key; across the project, an emitter
          without a registered ``validate_*`` that a test references
          (emitters that only delegate to another validated emitter
          are exempt).
TEL001    telemetry path literals that break the ``/``-separated
          lowercase ``segment[idx].metric`` grammar, and observation
          paths (``observe`` / ``timed``) whose leaf lacks a unit
          suffix (``_seconds``, ``_bytes``, ``_jobs``, ...);
          unit-suffixed names keep the Prometheus exposition legible.
PY001     mutable default argument values.
PY002     ``==`` / ``!=`` against non-sentinel float literals
          (exact sentinels ``0.0`` / ``1.0`` used for mode detection
          on configured values are exempt).
PY003     parameter names that shadow a builtin (``filter``,
          ``input``, ``id``, ...); the builtin becomes unreachable
          for the whole function body.
PY004     imported names the module never uses (names in ``__all__``
          and imports marked ``# noqa: F401`` are re-exports).
========  ==========================================================
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.checks.engine import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    register,
)

# -- shared AST helpers -----------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_dotted(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """The import-resolved dotted name used at ``node``, if any."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


def function_returns(node: ast.AST) -> Iterator[ast.Return]:
    """``return`` statements belonging to ``node`` itself.

    Does not descend into nested function or class definitions.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        if isinstance(child, ast.Return):
            yield child
        stack.extend(ast.iter_child_nodes(child))


# -- RNG001 -----------------------------------------------------------------


@register
class RngRule(Rule):
    """All randomness must route through :mod:`repro.utils.rng`."""

    id = "RNG001"
    summary = (
        "randomness outside repro.utils.rng "
        "(np.random/default_rng/stdlib random)"
    )
    allow = ("repro/utils/rng.py",)
    nodes = (ast.Import, ast.ImportFrom, ast.Attribute)

    _MESSAGE = (
        "randomness must route through repro.utils.rng "
        "(new_rng/spawn_rngs/derive_seed), not {what}"
    )

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield context.finding(
                        self,
                        node,
                        self._MESSAGE.format(what=f"'import {alias.name}'"),
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("random."):
                yield context.finding(
                    self,
                    node,
                    self._MESSAGE.format(what=f"'from {module} import'"),
                )
            elif module == "numpy.random":
                for alias in node.names:
                    if alias.name[:1].islower():
                        what = f"'from numpy.random import {alias.name}'"
                        yield context.finding(
                            self, node, self._MESSAGE.format(what=what)
                        )
        else:
            name = canonical_dotted(node, context.aliases)
            if (
                name is not None
                and name.startswith("numpy.random.")
                and name.count(".") == 2
                and node.attr[:1].islower()
            ):
                yield context.finding(
                    self, node, self._MESSAGE.format(what=f"'{name}'")
                )


# -- DET001 -----------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads are confined to telemetry and CLI shims."""

    id = "DET001"
    summary = (
        "wall-clock (time.time/perf_counter/datetime.now) outside "
        "repro/telemetry/ and repro/cli.py"
    )
    allow = ("repro/telemetry/*", "repro/cli.py")
    nodes = (ast.ImportFrom, ast.Attribute)

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: leaf names whose direct ``from time import ...`` is also banned
    _BANNED_TIME_LEAVES = frozenset(
        name.split(".", 1)[1]
        for name in _BANNED
        if name.startswith("time.")
    )

    _MESSAGE = (
        "wall-clock source {what} outside repro/telemetry/ (simulation "
        "outputs must be clock-independent)"
    )

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module != "time":
                return
            for alias in node.names:
                if alias.name in self._BANNED_TIME_LEAVES:
                    what = f"'from time import {alias.name}'"
                    yield context.finding(
                        self, node, self._MESSAGE.format(what=what)
                    )
        else:
            name = canonical_dotted(node, context.aliases)
            if name in self._BANNED:
                yield context.finding(
                    self, node, self._MESSAGE.format(what=f"'{name}'")
                )


# -- SCHEMA001 --------------------------------------------------------------


def _is_emitter(name: str) -> bool:
    """Whether ``name`` is a public ``*_report`` / ``*_document`` emitter."""
    if name.startswith(("_", "validate_", "render_")):
        return False
    return name.endswith(("_report", "_document"))


def _returns_dictish(fn: ast.AST) -> bool:
    returns = getattr(fn, "returns", None)
    if returns is not None:
        annotation = ast.unparse(returns)
        if annotation.startswith("typing."):
            annotation = annotation[len("typing.") :]
        if annotation.startswith(
            ("Dict", "dict", "Mapping", "MutableMapping")
        ):
            return True
    return any(
        isinstance(statement.value, ast.Dict)
        for statement in function_returns(fn)
        if statement.value is not None
    )


@register
class SchemaRule(ProjectRule):
    """Emitted JSON documents are stamped and have a tested validator.

    Per file: a public ``*_report`` / ``*_document`` emitter, or a method
    named ``report``, that returns a dict literal must give it an
    explicit ``"schema_version"`` key (a ``**spread`` does not count —
    the stamp must be visible at the emit site).  Documents routed
    through ``repro.cli._emit`` are stamped there and need no
    per-command handling.

    Across the project: every emitter returning a dict needs a
    registered ``validate_<name>`` that at least one test references,
    unless each of its returns only calls another validated emitter.
    The file walk collects the emitters; :meth:`check_project` judges
    them against the index.
    """

    id = "SCHEMA001"
    summary = (
        "*_report/*_document emitter returns a dict literal without "
        "schema_version, or has no tested validate_*"
    )
    nodes = (ast.FunctionDef, ast.AsyncFunctionDef)

    def __init__(self) -> None:
        #: dict-returning emitters the file walk found, in walk order
        self._emitters: List[Tuple[FileContext, Any]] = []

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        emitter = _is_emitter(node.name)
        if emitter and _returns_dictish(node):
            self._emitters.append((context, node))
        if node.name != "report" and not emitter:
            return
        for statement in function_returns(node):
            value = statement.value
            if not isinstance(value, ast.Dict):
                continue
            keys = {
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant)
            }
            if "schema_version" not in keys:
                yield context.finding(
                    self,
                    statement,
                    f"{node.name}() returns a document without a "
                    "'schema_version' key",
                )

    def check_project(self, project: Any) -> Iterator[Finding]:
        for context, node in self._emitters:
            returns = [
                statement.value
                for statement in function_returns(node)
                if statement.value is not None
            ]
            if returns and all(
                self._delegates(value, project) for value in returns
            ):
                continue
            validator = f"validate_{node.name}"
            if not project.has_symbol(validator):
                yield context.finding(
                    self,
                    node,
                    f"emitter '{node.name}' has no registered "
                    f"'{validator}'; define one next to the emitter "
                    "so consumers can check the document shape",
                )
            elif (
                project.test_names is not None
                and validator not in project.test_names
            ):
                yield context.finding(
                    self,
                    node,
                    f"validator '{validator}' is never referenced by a "
                    "test; add one that feeds it a real document",
                )

    @staticmethod
    def _delegates(value: ast.AST, project: Any) -> bool:
        """Whether a return value is a call to a validated emitter."""
        if not isinstance(value, ast.Call):
            return False
        callee = dotted_name(value.func)
        if not callee:
            return False
        return project.has_symbol(f"validate_{callee.rsplit('.', 1)[-1]}")


# -- TEL001 -----------------------------------------------------------------

#: One path atom: lowercase identifier with an optional ``[idx]``.
_TEL_ATOM = r"[a-z0-9_]+(?:\[[a-z0-9_.,=+-]*\])?"
#: A segment: atom, optionally dotted metric suffixes (``seg.metric``).
_TEL_LEAF = rf"{_TEL_ATOM}(?:\.{_TEL_ATOM})*"
#: A full counter/span path: ``/``-separated segments.
_TEL_PATH = re.compile(rf"{_TEL_LEAF}(?:/{_TEL_LEAF})*\Z")

#: Unit suffixes an observation path's leaf may end with — what makes
#: a histogram name self-describing in the Prometheus exposition.
_TEL_UNITS = (
    "seconds", "bytes", "jobs", "inputs", "cells", "entries",
    "calls", "ratio", "total", "joules", "watts",
)


def _is_collector_name(receiver: str) -> bool:
    """Whether a receiver name looks like a collector or scoped view."""
    stripped = receiver.lstrip("_")
    return stripped in {"tel", "telemetry", "collector"} or stripped.endswith(
        ("scope", "collector")
    )


def _telemetry_receiver(func: ast.Attribute) -> Optional[str]:
    """The name of the object a telemetry method is called on."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _path_template(node: ast.AST) -> Optional[str]:
    """The path template with placeholders replaced by ``'0'``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("0")
        return "".join(parts)
    return None


@register
class TelemetryPathRule(Rule):
    """Telemetry paths follow the grammar; observed metrics carry a unit.

    Checked on receivers that look like collectors or scoped views
    (``tel`` / ``collector`` / ``telemetry`` plus any name ending in
    ``scope`` or ``collector``, e.g. ``_serve_scope``).  At ``count``
    / ``set`` / ``span`` / ``scope`` / ``observe`` / ``timed`` calls
    the path must be ``/``-separated lowercase segments with optional
    ``[idx]`` and ``.metric`` suffixes; for f-strings only the
    constant fragments are validated, each placeholder standing for a
    valid atom.  At ``observe`` / ``timed`` — the histogram half of
    the collector API — the leaf's final dotted atom must also end in
    a unit suffix (``_seconds``, ``_bytes``, ``_jobs``, ...), so every
    exposed metric says what it measures
    (``latency/queue_wait_seconds``, never ``latency/queue_wait``).
    """

    id = "TEL001"
    summary = (
        "telemetry path breaks the lowercase 'seg[idx]/seg.metric' "
        "grammar, or an observed metric lacks a unit suffix "
        "(_seconds, _bytes, _jobs, ...)"
    )
    nodes = (ast.Call,)

    _OBSERVERS = frozenset({"observe", "timed"})
    _METHODS = frozenset({"count", "set", "span", "scope"}) | _OBSERVERS

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self._METHODS
            and node.args
        ):
            return
        receiver = _telemetry_receiver(func)
        if receiver is None or not _is_collector_name(receiver):
            return
        template = _path_template(node.args[0])
        if template is None:
            return
        if not _TEL_PATH.match(template):
            yield context.finding(
                self,
                node.args[0],
                f"telemetry path {template!r} must be /-separated "
                "lowercase segments with optional [idx] and "
                ".metric suffixes",
            )
            return
        if func.attr not in self._OBSERVERS:
            return
        leaf = template.rsplit("/", 1)[-1].rsplit(".", 1)[-1]
        base = leaf.partition("[")[0]
        if not base.endswith(tuple(f"_{u}" for u in _TEL_UNITS)):
            yield context.finding(
                self,
                node.args[0],
                f"metric path {template!r} leaf {base!r} lacks a "
                "unit suffix; end it in one of "
                f"{', '.join('_' + u for u in _TEL_UNITS)}",
            )


# -- PY001 ------------------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    """No mutable default argument values."""

    id = "PY001"
    summary = "mutable default argument value"
    nodes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _CALLS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CALLS
        )

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                name = getattr(node, "name", "<lambda>")
                yield context.finding(
                    self,
                    default,
                    f"mutable default in {name}(); use None and "
                    "create inside the function",
                )


# -- PY002 ------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against non-sentinel float literals.

    Comparing a *computed* float for exact equality is almost always a
    bug.  The exact sentinels ``0.0`` and ``1.0`` are exempt: the
    codebase compares configured knobs (noise rates, ADC level scale)
    against their disabled/identity defaults, which are assigned — not
    computed — and therefore compare exactly.
    """

    id = "PY002"
    summary = "==/!= against a non-sentinel float literal"
    nodes = (ast.Compare,)

    _SENTINELS = (0.0, 1.0)

    def _float_literal(self, node: ast.AST) -> Optional[float]:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        if isinstance(node, ast.Constant) and isinstance(
            node.value, float
        ):
            return node.value
        return None

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for side in [node.left, *node.comparators]:
            value = self._float_literal(side)
            if value is not None and value not in self._SENTINELS:
                yield context.finding(
                    self,
                    side,
                    f"exact float comparison against {value!r}; "
                    "use math.isclose or an explicit tolerance",
                )


# -- PY003 ------------------------------------------------------------------


@register
class BuiltinShadowParamRule(Rule):
    """No parameter names that shadow a builtin.

    A parameter named ``filter`` or ``input`` hides the builtin for
    the entire function body — the classic way a later edit that
    *does* need the builtin turns into a confusing ``TypeError``
    (this repo's ``run_suite(filter=...)`` was exactly that trap).
    Flags every lowercase public builtin name used as a parameter of a
    function, method, or lambda; the interactive ``site`` injections
    (``exit``, ``help``, ...) are exempt since nothing in library code
    reaches for them.
    """

    id = "PY003"
    summary = "parameter name shadows a builtin"
    nodes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _SITE_INJECTED = frozenset(
        {"copyright", "credits", "exit", "help", "license", "quit"}
    )
    _BUILTINS = (
        frozenset(
            name
            for name in dir(builtins)
            if name.islower() and not name.startswith("_")
        )
        - _SITE_INJECTED
    )

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        arguments = node.args
        params = [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]
        if arguments.vararg is not None:
            params.append(arguments.vararg)
        if arguments.kwarg is not None:
            params.append(arguments.kwarg)
        for param in params:
            if param.arg in self._BUILTINS:
                name = getattr(node, "name", "<lambda>")
                yield context.finding(
                    self,
                    param,
                    f"parameter {param.arg!r} of {name}() shadows "
                    "the builtin; rename it (a trailing underscore "
                    "or a qualified name both work)",
                )


# -- PY004 ------------------------------------------------------------------


@register
class UnusedImportRule(Rule):
    """No imported name that the module never reads.

    A name counts as used when the module loads it anywhere (nested
    scopes and string annotations included) or lists it in
    ``__all__``.  An import whose line carries ``# noqa: F401`` is an
    explicit re-export; ``__future__`` imports are directives.  The
    rule records imports and uses during the file's one walk and
    judges them in :meth:`finish`.
    """

    id = "PY004"
    summary = "imported name is never used"
    nodes = (
        ast.Import, ast.ImportFrom, ast.Name, ast.Assign, ast.arg,
        ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign,
    )

    _REEXPORT = re.compile(r"#\s*noqa:\s*F401\b")

    def __init__(self) -> None:
        self._imports: List[Tuple[ast.stmt, ast.alias, str]] = []
        self._used: set = set()

    @staticmethod
    def _strings(node: ast.AST) -> Iterator[str]:
        for const in ast.walk(node):
            if isinstance(const, ast.Constant) and isinstance(
                const.value, str
            ):
                yield const.value

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            self._imports.extend(
                (node, alias, alias.asname or alias.name.split(".")[0])
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                self._imports.extend(
                    (node, alias, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                )
        elif isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                self._used.add(node.id)
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                self._used.update(self._strings(node.value))
        else:
            annotation = getattr(node, "annotation", None) or getattr(
                node, "returns", None
            )
            for text in self._strings(annotation) if annotation else ():
                try:
                    parsed = ast.parse(text, mode="eval")
                except SyntaxError:
                    continue
                self._used.update(
                    name.id
                    for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                )
        return iter(())

    def finish(self, context: FileContext) -> Iterator[Finding]:
        imports, used = self._imports, self._used
        self._imports, self._used = [], set()
        lines = context.source.splitlines()
        for statement, alias, name in imports:
            if name in used or any(
                self._REEXPORT.search(lines[line - 1])
                for line in {statement.lineno, alias.lineno}
            ):
                continue
            yield context.finding(
                self,
                alias,
                f"{name!r} is imported but never used; delete it "
                "(or list it in __all__ if it is a re-export)",
            )


#: Rule metadata for docs and ``--list-rules``: id -> (summary, allow).
def rule_table() -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """``{rule_id: (summary, default allowed paths)}`` in order."""
    from repro.checks.engine import RULES

    return {
        rule_id: (rule_class.summary, tuple(rule_class.allow))
        for rule_id, rule_class in RULES.items()
    }
