"""The named contracts enforced by ``repro check``.

Each rule encodes one repo-specific invariant the reproducibility
story depends on.  Rules are registered with
:func:`repro.checks.engine.register` and individually suppressible
with ``# repro: noqa[RULE]`` on the flagged line.

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
          ``schema_version`` key.
TEL001    telemetry counter/span path literals that break the
          ``/``-separated lowercase ``segment[idx].metric`` grammar.
TEL002    histogram/metric observation paths (``observe`` /
          ``timed`` call sites) whose leaf lacks a unit suffix
          (``_seconds``, ``_bytes``, ``_jobs``, ...); unit-suffixed
          names are what keep the Prometheus exposition legible.
PY001     mutable default argument values.
PY002     ``==`` / ``!=`` against non-sentinel float literals
          (exact sentinels ``0.0`` / ``1.0`` used for mode detection
          on configured values are exempt).
PY003     parameter names that shadow a builtin (``filter``,
          ``input``, ``id``, ...); the builtin becomes unreachable
          for the whole function body.
========  ==========================================================
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Dict, Iterator, Optional, Tuple

from repro.checks.engine import (
    FileContext,
    Finding,
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


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted import target for one module.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random as nr`` maps ``nr -> numpy.random``; ``import numpy.random``
    binds only ``numpy``.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
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

    _MESSAGE = (
        "randomness must route through repro.utils.rng "
        "(new_rng/spawn_rngs/derive_seed), not {what}"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random":
                        yield context.finding(
                            self,
                            node,
                            self._MESSAGE.format(
                                what=f"'import {alias.name}'"
                            ),
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module
                if module == "random" or module.startswith("random."):
                    yield context.finding(
                        self,
                        node,
                        self._MESSAGE.format(what=f"'from {module} import'"),
                    )
                elif module == "numpy.random":
                    for alias in node.names:
                        if alias.name[:1].islower():
                            yield context.finding(
                                self,
                                node,
                                self._MESSAGE.format(
                                    what=(
                                        f"'from numpy.random import "
                                        f"{alias.name}'"
                                    )
                                ),
                            )
            elif isinstance(node, ast.Attribute):
                name = canonical_dotted(node, aliases)
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

    def check(self, context: FileContext) -> Iterator[Finding]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._BANNED_TIME_LEAVES:
                        yield context.finding(
                            self,
                            node,
                            self._MESSAGE.format(
                                what=f"'from time import {alias.name}'"
                            ),
                        )
            elif isinstance(node, ast.Attribute):
                name = canonical_dotted(node, aliases)
                if name in self._BANNED:
                    yield context.finding(
                        self, node, self._MESSAGE.format(what=f"'{name}'")
                    )


# -- SCHEMA001 --------------------------------------------------------------


@register
class SchemaStampRule(Rule):
    """Emitted JSON documents must carry ``schema_version``.

    Applies to public functions and methods named ``report`` or ending
    in ``_report`` / ``_document`` that return a dict literal: every
    such literal must contain an explicit ``"schema_version"`` key
    (a ``**spread`` does not count — the stamp must be visible at the
    emit site).  Documents routed through ``repro.cli._emit`` are
    stamped there and need no per-command handling.
    """

    id = "SCHEMA001"
    summary = (
        "public *_report/*_document function returns a dict literal "
        "without a schema_version key"
    )

    _NAMES = ("_report", "_document")

    def _matches(self, name: str) -> bool:
        if name.startswith("_"):
            return False
        return name == "report" or name.endswith(self._NAMES)

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not self._matches(node.name):
                continue
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


# -- TEL001 -----------------------------------------------------------------

#: One path atom: lowercase identifier with an optional ``[idx]``.
_TEL_ATOM = r"[a-z0-9_]+(?:\[[a-z0-9_.,=+-]*\])?"
#: A segment: atom, optionally dotted metric suffixes (``seg.metric``).
_TEL_LEAF = rf"{_TEL_ATOM}(?:\.{_TEL_ATOM})*"
#: A full counter/span path: ``/``-separated segments.
_TEL_PATH = re.compile(rf"{_TEL_LEAF}(?:/{_TEL_LEAF})*\Z")

#: Receiver names (after stripping leading underscores) that look
#: like collectors at telemetry call sites.
_TEL_RECEIVERS = frozenset({"tel", "telemetry", "collector"})


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
    """Counter/span paths follow the ``/``-separated lowercase grammar.

    Checked at ``count`` / ``set`` / ``span`` / ``scope`` call sites on
    receivers that look like collectors (``tel``, ``collector``,
    ``telemetry``).  For f-strings only the constant fragments are
    validated; each placeholder is treated as a valid atom.
    """

    id = "TEL001"
    summary = (
        "telemetry path literal breaks the lowercase "
        "'seg[idx]/seg.metric' grammar"
    )

    _METHODS = frozenset({"count", "set", "span", "scope"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
                and node.args
            ):
                continue
            receiver = _telemetry_receiver(node.func)
            if (
                receiver is None
                or receiver.lstrip("_") not in _TEL_RECEIVERS
            ):
                continue
            template = _path_template(node.args[0])
            if template is None:
                continue
            if not _TEL_PATH.match(template):
                yield context.finding(
                    self,
                    node.args[0],
                    f"telemetry path {template!r} must be /-separated "
                    "lowercase segments with optional [idx] and "
                    ".metric suffixes",
                )


# -- TEL002 -----------------------------------------------------------------

#: Unit suffixes an observation path's leaf may end with — what makes
#: a histogram name self-describing in the Prometheus exposition.
_TEL_UNITS = (
    "seconds", "bytes", "jobs", "inputs", "cells", "entries",
    "calls", "ratio", "total", "joules", "watts",
)


@register
class MetricNameRule(Rule):
    """Observation paths are lowercase and carry a unit suffix.

    Checked at ``observe`` / ``timed`` call sites — the histogram half
    of the collector API — on receivers that look like collectors or
    scoped views (``tel`` / ``collector`` / ``telemetry`` plus any
    name ending in ``scope`` or ``collector``, e.g. ``_serve_scope``).
    Beyond the TEL001 path grammar, the leaf's final dotted atom must
    end in one of the unit suffixes (``_seconds``, ``_bytes``,
    ``_jobs``, ...), so every exposed metric name says what it
    measures (``latency/queue_wait_seconds``, never
    ``latency/queue_wait``).
    """

    id = "TEL002"
    summary = (
        "observed metric path must be lowercase and unit-suffixed "
        "(_seconds, _bytes, _jobs, ...)"
    )

    _METHODS = frozenset({"observe", "timed"})

    @staticmethod
    def _is_collector_name(receiver: str) -> bool:
        stripped = receiver.lstrip("_")
        return (
            stripped in _TEL_RECEIVERS
            or stripped.endswith("scope")
            or stripped.endswith("collector")
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
                and node.args
            ):
                continue
            receiver = _telemetry_receiver(node.func)
            if receiver is None or not self._is_collector_name(receiver):
                continue
            template = _path_template(node.args[0])
            if template is None:
                continue
            if not _TEL_PATH.match(template):
                yield context.finding(
                    self,
                    node.args[0],
                    f"metric path {template!r} must be /-separated "
                    "lowercase segments with optional [idx] and "
                    ".metric suffixes",
                )
                continue
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

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
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

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
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

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
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


#: Rule metadata for docs and ``--list-rules``: id -> (summary, allow).
def rule_table() -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """``{rule_id: (summary, default allowed paths)}`` in order."""
    from repro.checks.engine import RULES

    return {
        rule_id: (rule_class.summary, tuple(rule_class.allow))
        for rule_id, rule_class in RULES.items()
    }
