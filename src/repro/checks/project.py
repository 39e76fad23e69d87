"""Whole-program rules: layering, concurrency, schema exhaustiveness.

The per-file rules in :mod:`repro.checks.rules` cannot see across
modules, so the contracts that live *between* files — the layer DAG,
blocking calls inside the serve event loop, state shared with worker
threads, objects smuggled into process pools — went unchecked.  This
module adds a :class:`ProjectIndex` (import graph + symbol index +
test-reference index over one package root) and the rule family on
top of it (SCHEMA001's validator half, in :mod:`repro.checks.rules`,
uses the same index):

========  ==========================================================
ARCH001   eager imports must respect the committed layer DAG
          (:data:`repro.checks.graph.LAYER_TABLE`); violations name
          the offending edge, and any eager import cycle is reported
          with the shortest cycle path.
CONC001   blocking calls (``time.sleep``, ``subprocess``, ``open``,
          ``Path.read_text``/``write_text``, ``Future.result()``)
          directly inside ``async def`` bodies in ``repro/serve/`` —
          nested sync ``def`` s handed to an executor are exempt.
CONC002   instance or module state in ``serve/``/``sweep/`` mutated
          from a thread entry point (``run_in_executor`` callables,
          ``ThreadPoolExecutor.submit``, ``threading.Thread``
          targets) without a visible ``with <lock>:`` guard.  A
          spawned thread always races the constructing thread, so
          any unguarded mutation is flagged.
CONC003   non-fork-safe objects (live ``Collector`` s / scopes, open
          file handles, RNG ``Generator`` s) captured into
          ``ProcessPoolExecutor.submit`` calls in ``repro/sweep/`` —
          workers must receive plain data and rebuild.
NOQA001   suppressions that suppress nothing: a
          ``# repro: noqa[RULE]`` pin whose rule never fires on that
          line, a pin naming an unknown rule, or a bare noqa on a
          clean line.  Pins cannot rot silently.
========  ==========================================================

Heuristics are deliberately conservative: unresolvable receivers are
skipped, lock detection is lexical (a ``with`` statement whose
context expression mentions ``lock``), and only in-project modules
participate — the goal is zero false positives on the committed tree
with real violations still caught.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checks.engine import (
    AUDIT_RULE,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    register,
)
from repro.checks.graph import LAYER_LABELS, ImportGraph, layer_of
from repro.checks.rules import canonical_dotted


class ProjectIndex:
    """Parsed view of one package for the project rules.

    Holds the import graph over the engine's parsed records, the set
    of top-level symbol names per module, and — when a ``tests/``
    tree sits beside a package root — every name referenced anywhere
    in the tests (used by SCHEMA001 to require test coverage of
    validators).
    """

    def __init__(
        self,
        modules: Mapping[str, FileContext],
        test_names: Optional[Set[str]],
    ) -> None:
        self.graph = ImportGraph(modules)
        #: module dotted name -> top-level names bound in it
        self.symbols: Dict[str, Set[str]] = {
            name: _top_level_names(info.tree)
            for name, info in self.graph.modules.items()
        }
        #: every Name/attr/import referenced in the tests, or ``None``
        #: when no tests tree was found.
        self.test_names = test_names

    @classmethod
    def build(
        cls,
        modules: Mapping[str, FileContext],
        roots: Sequence[Path],
    ) -> "ProjectIndex":
        """Index ``modules`` (by dotted name) of the package ``roots``."""
        tests_roots = sorted(
            {tests for tests in map(_tests_root, roots) if tests}
        )
        if not tests_roots:
            return cls(modules, None)
        test_names: Set[str] = set()
        for tests_root in tests_roots:
            for file in sorted(tests_root.rglob("*.py")):
                try:
                    tree = ast.parse(file.read_text())
                except SyntaxError:
                    continue
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        test_names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        test_names.add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        for alias in node.names:
                            test_names.add(alias.name)
        return cls(modules, test_names)

    def has_symbol(self, name: str) -> bool:
        """Whether any module binds ``name`` at top level."""
        return any(name in names for names in self.symbols.values())

    def modules_under(
        self, prefixes: Sequence[str]
    ) -> List[FileContext]:
        """Modules whose canonical path starts with any prefix."""
        return [
            info
            for info in self.graph.modules.values()
            if any(info.path.startswith(p) for p in prefixes)
        ]


def _tests_root(root: Path) -> Optional[Path]:
    """The ``tests/`` tree beside package ``root``, if any."""
    for candidate in (root.parent / "tests", root.parent.parent / "tests"):
        if candidate.is_dir():
            return candidate
    return None


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


# -- ARCH001: layer DAG -----------------------------------------------------


@register
class LayerDagRule(ProjectRule):
    """Eager imports must point at the same or a lower layer."""

    id = "ARCH001"
    summary = (
        "eager import that climbs the layer DAG (or an import cycle); "
        "make it lazy, type-only, or move the code"
    )

    def check_project(
        self, project: ProjectIndex
    ) -> Iterator[Finding]:
        graph = project.graph
        for edge in graph.edges:
            if edge.kind != "eager":
                continue
            source = graph.modules.get(edge.source)
            target = graph.modules.get(edge.target)
            if source is None or target is None:
                continue
            src_layer = layer_of(source.path)
            tgt_layer = layer_of(target.path)
            if src_layer is None or tgt_layer is None:
                continue
            if tgt_layer > src_layer:
                yield Finding(
                    rule=self.id,
                    path=source.path,
                    line=edge.line,
                    col=edge.col + 1,
                    message=(
                        f"layer violation: eager import of "
                        f"'{edge.target}' (layer {tgt_layer}, "
                        f"{LAYER_LABELS.get(tgt_layer, tgt_layer)}) from "
                        f"layer {src_layer} "
                        f"({LAYER_LABELS.get(src_layer, src_layer)}); "
                        "imports must point at the same or a lower "
                        "layer -- make it lazy (inside the using "
                        "function), type-only (TYPE_CHECKING), or "
                        "move the code down"
                    ),
                )
        cycle = graph.shortest_cycle(kinds=("eager",))
        if cycle is not None:
            anchor = None
            for edge in graph.edges_from(cycle[0]):
                if edge.target == cycle[1]:
                    anchor = edge
                    break
            head = graph.modules[cycle[0]]
            yield Finding(
                rule=self.id,
                path=head.path,
                line=anchor.line if anchor else 1,
                col=(anchor.col + 1) if anchor else 1,
                message=(
                    "eager import cycle: "
                    + " -> ".join(cycle)
                    + "; break the shortest edge with a lazy import"
                ),
            )


# -- CONC001: blocking calls in async bodies --------------------------------

_BLOCKING_IO_ATTRS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


def _direct_calls(
    function: ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Calls in the async body itself, not in nested ``def`` s."""
    stack: List[ast.AST] = list(
        ast.iter_child_nodes(function)
    )
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class AsyncBlockingRule(Rule):
    """No blocking calls directly inside serve's async bodies."""

    id = "CONC001"
    summary = (
        "blocking call (time.sleep/subprocess/open/Path IO/"
        ".result()) inside an async def in repro/serve"
    )

    nodes = (ast.AsyncFunctionDef,)

    _scope = "repro/serve/"

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if not context.path.startswith(self._scope):
            return
        for call in _direct_calls(node):
            message = self._blocking(call, context.aliases)
            if message is not None:
                yield context.finding(self, call, message)

    def _blocking(
        self, call: ast.Call, aliases: Dict[str, str]
    ) -> Optional[str]:
        resolved = canonical_dotted(call.func, aliases)
        if resolved == "time.sleep":
            return (
                "time.sleep blocks the event loop; use "
                "'await asyncio.sleep(...)'"
            )
        if resolved is not None and (
            resolved == "subprocess"
            or resolved.startswith("subprocess.")
        ):
            return (
                "subprocess call blocks the event loop; run it via "
                "run_in_executor"
            )
        if resolved == "open":
            return (
                "open() blocks the event loop; move file I/O into a "
                "'def work()' handed to run_in_executor"
            )
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _BLOCKING_IO_ATTRS:
                return (
                    f".{attr}() blocks the event loop; move file "
                    "I/O into a 'def work()' handed to "
                    "run_in_executor"
                )
            if attr == "result" and not call.args:
                return (
                    ".result() blocks the event loop on a future; "
                    "await it (or wrap with asyncio.wrap_future)"
                )
        return None


# -- CONC002: thread-shared state without a lock ----------------------------

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "count",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "observe",
        "pop",
        "popitem",
        "push",
        "remove",
        "set",
        "setdefault",
        "update",
        "write",
    }
)


def _self_attr_root(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is rooted at ``self.X`` (any depth)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def _name_root(node: ast.AST) -> Optional[str]:
    """The root ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _last_segment(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


class _ClassInfo:
    def __init__(self, module: str, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.methods: Dict[str, ast.AST] = {
            child.name: child
            for child in node.body
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
        }
        #: self attribute -> (module, class) for attributes bound to
        #: in-project class instances (``self._cache = Cache(...)``).
        self.attr_types: Dict[str, Tuple[str, str]] = {}


def _constructor_binding(
    value: ast.AST,
    aliases: Dict[str, str],
    classes: Mapping[Tuple[str, str], "_ClassInfo"],
    modules: Mapping[str, FileContext],
) -> Optional[Tuple[str, str]]:
    """``(module, class)`` when ``value`` constructs a project class."""
    if not isinstance(value, ast.Call):
        return None
    resolved = canonical_dotted(value.func, aliases)
    if resolved is None or "." not in resolved:
        return None
    module_part, _, class_part = resolved.rpartition(".")
    while module_part and module_part not in modules:
        if "." not in module_part:
            return None
        module_part = module_part.rpartition(".")[0]
    if (module_part, class_part) in classes:
        return (module_part, class_part)
    return None


def _executor_kind(
    receiver: ast.AST,
    function: ast.AST,
    class_info: Optional[_ClassInfo],
    aliases: Dict[str, str],
) -> Optional[str]:
    """``thread`` / ``process`` for a ``.submit`` receiver, if known."""

    def kind_of(value: ast.AST) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        name = _last_segment(canonical_dotted(value.func, aliases))
        if name == "ThreadPoolExecutor":
            return "thread"
        if name == "ProcessPoolExecutor":
            return "process"
        return None

    if isinstance(receiver, ast.Name):
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == receiver.id
                    ):
                        kind = kind_of(node.value)
                        if kind:
                            return kind
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    vars_ = item.optional_vars
                    if (
                        isinstance(vars_, ast.Name)
                        and vars_.id == receiver.id
                    ):
                        kind = kind_of(item.context_expr)
                        if kind:
                            return kind
        return None
    attr = _self_attr_root(receiver)
    if attr is not None and class_info is not None:
        for method in class_info.methods.values():
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == attr
                        ):
                            kind = kind_of(node.value)
                            if kind:
                                return kind
    return None


def _resolve_callable(
    expr: ast.AST,
    function: ast.AST,
    class_info: Optional[_ClassInfo],
    module_functions: Mapping[str, ast.AST],
) -> Optional[Tuple[Optional[str], ast.AST]]:
    """``(method_name or None, node)`` the spawned callable runs."""
    if isinstance(expr, ast.Lambda):
        return (None, expr)
    if isinstance(expr, ast.Name):
        for node in ast.walk(function):
            if (
                isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node.name == expr.id
                and node is not function
            ):
                return (None, node)
        if expr.id in module_functions:
            return (None, module_functions[expr.id])
        return None
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and class_info is not None
        and expr.attr in class_info.methods
    ):
        return (expr.attr, class_info.methods[expr.attr])
    return None


def _iter_scoped_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AST]]:
    """Top-level functions and methods with their owning class."""
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield (None, node)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield (node, child)


@register
class ThreadSharedStateRule(ProjectRule):
    """Thread-entered code must lock its shared-state mutations."""

    id = "CONC002"
    summary = (
        "shared state mutated from a thread entry point in serve/ or "
        "sweep/ without a visible lock guard"
    )

    _scopes = ("repro/serve/", "repro/sweep/")

    def check_project(
        self, project: ProjectIndex
    ) -> Iterator[Finding]:
        modules = {
            info.name: info
            for info in project.modules_under(self._scopes)
        }
        aliases = {name: info.aliases for name, info in modules.items()}
        classes: Dict[Tuple[str, str], _ClassInfo] = {}
        module_functions: Dict[str, Dict[str, ast.AST]] = {}
        module_globals: Dict[str, Set[str]] = {}
        for name, info in sorted(modules.items()):
            module_globals[name] = _top_level_names(info.tree)
            module_functions[name] = {}
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef):
                    classes[(name, node.name)] = _ClassInfo(
                        name, node
                    )
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    module_functions[name][node.name] = node
        for (name, _), info in sorted(classes.items()):
            for method in info.methods.values():
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        binding = _constructor_binding(
                            node.value,
                            aliases[name],
                            classes,
                            project.graph.modules,
                        )
                        if binding is not None:
                            info.attr_types[target.attr] = binding
        # Seed: callables handed to thread executors / Thread().
        marked: Dict[int, Tuple[str, Optional[str], ast.AST]] = {}

        def mark(
            module: str,
            class_name: Optional[str],
            node: ast.AST,
        ) -> bool:
            if id(node) in marked:
                return False
            marked[id(node)] = (module, class_name, node)
            return True

        for name, info in sorted(modules.items()):
            for owner, function in _iter_scoped_functions(info.tree):
                owner_info = (
                    classes.get((name, owner.name)) if owner else None
                )
                for call in ast.walk(function):
                    if not isinstance(call, ast.Call):
                        continue
                    spawned = self._spawned_callable(
                        call, function, owner_info, aliases[name]
                    )
                    if spawned is None:
                        continue
                    resolved = _resolve_callable(
                        spawned,
                        function,
                        owner_info,
                        module_functions[name],
                    )
                    if resolved is None:
                        continue
                    _, target = resolved
                    mark(name, owner.name if owner else None, target)
        # Propagate through self.method() and self.attr.method().
        changed = True
        while changed:
            changed = False
            for module, class_name, node in list(marked.values()):
                info = (
                    classes.get((module, class_name))
                    if class_name
                    else None
                )
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call) or not (
                        isinstance(call.func, ast.Attribute)
                    ):
                        continue
                    func = call.func
                    value = func.value
                    if (
                        isinstance(value, ast.Name)
                        and value.id == "self"
                        and info is not None
                        and func.attr in info.methods
                    ):
                        if mark(
                            module,
                            class_name,
                            info.methods[func.attr],
                        ):
                            changed = True
                    elif (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                        and info is not None
                        and value.attr in info.attr_types
                    ):
                        t_mod, t_cls = info.attr_types[value.attr]
                        target_info = classes.get((t_mod, t_cls))
                        if (
                            target_info is not None
                            and func.attr in target_info.methods
                        ):
                            if mark(
                                t_mod,
                                t_cls,
                                target_info.methods[func.attr],
                            ):
                                changed = True
        # Flag unguarded mutations inside thread-entered code.
        findings: List[Finding] = []
        for module, class_name, node in marked.values():
            info = modules[module]
            globals_ = module_globals[module]
            for site, state in self._unguarded(node, globals_):
                findings.append(
                    Finding(
                        rule=self.id,
                        path=info.path,
                        line=getattr(site, "lineno", 1),
                        col=getattr(site, "col_offset", 0) + 1,
                        message=(
                            f"'{state}' is mutated from a thread "
                            "entry point without a visible lock "
                            "guard; wrap the mutation in "
                            "'with <lock>:' or confine it to one "
                            "thread"
                        ),
                    )
                )
        seen: Set[Tuple[str, int, int, str]] = set()
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.col)
        ):
            key = (
                finding.path,
                finding.line,
                finding.col,
                finding.message,
            )
            if key not in seen:
                seen.add(key)
                yield finding

    def _spawned_callable(
        self,
        call: ast.Call,
        function: ast.AST,
        class_info: Optional[_ClassInfo],
        aliases: Dict[str, str],
    ) -> Optional[ast.AST]:
        """The callable this call hands to another thread, if any."""
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "run_in_executor" and len(call.args) >= 2:
                return call.args[1]
            if func.attr == "submit" and call.args:
                kind = _executor_kind(
                    func.value, function, class_info, aliases
                )
                if kind == "thread":
                    return call.args[0]
                return None
        if canonical_dotted(func, aliases) == "threading.Thread":
            for keyword in call.keywords:
                if keyword.arg == "target":
                    return keyword.value
        return None

    def _unguarded(
        self, function: ast.AST, module_globals: Set[str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        """(site, state-name) mutations not under a lock ``with``."""

        def is_lock_guard(item: ast.withitem) -> bool:
            return "lock" in ast.unparse(item.context_expr).lower()

        def global_names(node: ast.AST) -> Set[str]:
            names: Set[str] = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Global):
                    names.update(child.names)
            return names

        declared_global = global_names(function)

        def visit(
            node: ast.AST, guarded: bool
        ) -> Iterator[Tuple[ast.AST, str]]:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = guarded or any(
                    is_lock_guard(item) for item in node.items
                )
                for child in node.body:
                    yield from visit(child, inner)
                return
            if not guarded:
                yield from self._mutations(
                    node, module_globals, declared_global
                )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, guarded)

        for child in ast.iter_child_nodes(function):
            yield from visit(child, False)

    def _mutations(
        self,
        node: ast.AST,
        module_globals: Set[str],
        declared_global: Set[str],
    ) -> Iterator[Tuple[ast.AST, str]]:
        def state_of(
            target: ast.AST, receiver: bool = False
        ) -> Optional[str]:
            attr = _self_attr_root(target)
            if attr is not None:
                return None if "lock" in attr.lower() else attr
            root = _name_root(target)
            if root is None:
                return None
            # A plain assignment to a name only rebinds module state
            # under an explicit ``global``; mutator calls and
            # subscript/attribute stores reach module globals without
            # one.
            plain = isinstance(target, ast.Name) and not receiver
            if plain and root not in declared_global:
                return None
            if not plain and root not in (
                module_globals | declared_global
            ):
                return None
            return None if "lock" in root.lower() else root

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                state = state_of(target)
                if state is not None:
                    yield (node, state)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATORS:
                state = state_of(node.func.value, receiver=True)
                if state is not None:
                    yield (node, state)


# -- CONC003: non-fork-safe captures into process pools ---------------------

_FORK_UNSAFE_CALLS = frozenset(
    {"Collector", "default_rng", "new_rng", "open", "spawn_rngs"}
)
_COLLECTOR_NAMES = frozenset({"collector", "tel", "telemetry"})


def _fork_unsafe_reason(
    expr: ast.AST,
    function: ast.AST,
    aliases: Dict[str, str],
) -> Optional[str]:
    """Why ``expr`` must not cross a process boundary, if known."""
    if isinstance(expr, ast.Call):
        resolved = canonical_dotted(expr.func, aliases)
        last = _last_segment(resolved)
        if last in _FORK_UNSAFE_CALLS:
            return f"a live '{last}(...)' result"
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "scope"
        ):
            return "a live collector scope"
        return None
    name: Optional[str] = None
    if isinstance(expr, ast.Name):
        name = expr.id
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == name
                    ):
                        reason = _fork_unsafe_reason(
                            node.value, function, aliases
                        )
                        if reason is not None:
                            return reason
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    if name is not None:
        lowered = name.lower()
        if lowered in _COLLECTOR_NAMES or lowered.endswith(
            ("collector", "_scope")
        ):
            return f"'{name}' (a live collector by convention)"
    return None


@register
class ForkSafetyRule(Rule):
    """Process-pool submissions must carry plain data only."""

    id = "CONC003"
    summary = (
        "non-fork-safe object (live Collector/open handle/RNG "
        "Generator) captured into a process-pool submit in "
        "repro/sweep"
    )

    #: The whole module: each function is judged with its owning class.
    nodes = (ast.Module,)

    _scope = "repro/sweep/"

    def visit(self, context: FileContext, node: Any) -> Iterator[Finding]:
        if not context.path.startswith(self._scope):
            return
        aliases = context.aliases
        classes = {
            child.name: _ClassInfo("", child)
            for child in node.body
            if isinstance(child, ast.ClassDef)
        }
        for owner, function in _iter_scoped_functions(node):
            owner_info = classes.get(owner.name) if owner else None
            for call in ast.walk(function):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "submit"
                    and call.args
                ):
                    continue
                kind = _executor_kind(
                    call.func.value, function, owner_info, aliases
                )
                if kind != "process":
                    continue
                captured = list(call.args[1:]) + [
                    keyword.value for keyword in call.keywords
                ]
                for expr in captured:
                    reason = _fork_unsafe_reason(
                        expr, function, aliases
                    )
                    if reason is not None:
                        yield context.finding(
                            self,
                            expr,
                            (
                                f"{reason} is captured into a "
                                "process-pool submit; workers must "
                                "receive plain data and rebuild "
                                "live objects inside the worker"
                            ),
                        )


# -- NOQA001: stale suppressions --------------------------------------------


@register
class SuppressionAuditRule(Rule):
    """A noqa pin that suppresses nothing is itself a finding.

    It names no AST nodes: when it is selected,
    :func:`repro.checks.engine.check_paths` audits every pin that
    muted no finding of the run.
    """

    id = AUDIT_RULE
    summary = (
        "stale '# repro: noqa' suppression -- pins nothing on its "
        "line (or names an unknown rule)"
    )


__all__ = [
    "AsyncBlockingRule",
    "ForkSafetyRule",
    "LayerDagRule",
    "ProjectIndex",
    "SuppressionAuditRule",
    "ThreadSharedStateRule",
]
