"""Project-wide import graph for the cross-file check rules.

An :class:`ImportGraph` resolves the ``import`` / ``from ... import``
statements of parsed modules (the engine's shared parse, or
:func:`build_import_graph` over one package root) to in-project
modules, as :class:`ImportEdge` s.  Each edge is classified:

``eager``
    executed at module import time — the edges that define load order,
    fork behaviour, and the layer architecture;
``lazy``
    inside a function body — the sanctioned escape hatch for a
    higher-layer dependency used at call time;
``typing``
    inside an ``if TYPE_CHECKING:`` block — annotations only, never
    executed.

Resolution handles ``import a.b.c``, ``from a.b import c`` (where
``c`` may be a submodule or a symbol), aliasing (``from x import y as
z``), relative imports at any level, and namespace packages (no
``__init__.py`` required — module names derive from file paths).
Imports of modules outside the project (stdlib, numpy) are ignored.

The module also owns the repo's **layer table**: the committed layer
DAG (:data:`LAYER_TABLE`) that ``ARCH001`` enforces — eager imports
must point at the same or a lower layer.  Longest prefix wins, so a
single file can be re-layered without moving it (``repro/serve/
jobs.py`` is the JobSpec wire format and lives in the API layer even
though it sits in the ``serve/`` directory).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checks.engine import FileContext, canonical_path, parse_file

#: The committed layer DAG, lowest layer first.  Longest matching
#: prefix wins; entries ending in ``/`` match a directory subtree,
#: anything else matches one file exactly.  Edits here are
#: architecture decisions — the golden fixture in
#: ``tests/checks/test_graph.py`` pins the table so changes are
#: reviewed deliberately.
LAYER_TABLE: Tuple[Tuple[str, int], ...] = (
    ("repro/utils/", 0),
    ("repro/telemetry/", 1),
    ("repro/datasets/", 2),
    ("repro/workloads/", 2),
    ("repro/nn/", 3),
    ("repro/xbar/", 3),
    ("repro/arch/", 3),
    ("repro/core/", 4),
    ("repro/api.py", 5),
    # The JobSpec wire format is API surface: repro.api re-exports it
    # and eagerly imports it, so it layers with api.py, not serve/.
    ("repro/serve/jobs.py", 5),
    ("repro/reliability/", 6),
    ("repro/sweep/", 6),
    ("repro/serve/", 7),
    ("repro/bench/", 7),
    ("repro/__init__.py", 8),
    ("repro/cli.py", 9),
    ("repro/checks/", 9),
)

#: Human labels for the layers of :data:`LAYER_TABLE` (docs, messages).
LAYER_LABELS: Dict[int, str] = {
    0: "utils",
    1: "telemetry",
    2: "workloads/datasets",
    3: "arch/xbar/nn",
    4: "core",
    5: "api surface",
    6: "reliability/sweep",
    7: "serve/bench",
    8: "package root",
    9: "cli/checks",
}


def layer_of(
    path: str,
    table: Sequence[Tuple[str, int]] = LAYER_TABLE,
) -> Optional[int]:
    """The layer of a canonical module path, or ``None`` if unmapped.

    Longest matching prefix wins so per-file overrides beat their
    directory's entry.
    """
    best: Optional[Tuple[int, int]] = None
    for prefix, layer in table:
        if path == prefix or (
            prefix.endswith("/") and path.startswith(prefix)
        ):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), layer)
    return None if best is None else best[1]


@dataclass(frozen=True)
class ImportEdge:
    """One resolved in-project import at one source location."""

    source: str  #: importing module (dotted name)
    target: str  #: imported module (dotted name)
    line: int
    col: int
    kind: str  #: ``eager`` | ``lazy`` | ``typing``


class ImportGraph:
    """Parsed modules (by dotted name) plus their in-project imports."""

    def __init__(self, modules: Mapping[str, FileContext]) -> None:
        self.modules: Dict[str, FileContext] = dict(
            sorted(modules.items())
        )
        self.edges: List[ImportEdge] = sorted(
            _resolve_edges(self.modules),
            key=lambda e: (e.source, e.line, e.col, e.target, e.kind),
        )

    def adjacency(
        self, kinds: Sequence[str] = ("eager",)
    ) -> Dict[str, List[str]]:
        """``module -> sorted imported modules`` for the given kinds."""
        wanted = set(kinds)
        table: Dict[str, Set[str]] = {
            name: set() for name in self.modules
        }
        for edge in self.edges:
            if edge.kind in wanted and edge.target in self.modules:
                table[edge.source].add(edge.target)
        return {
            name: sorted(targets) for name, targets in table.items()
        }

    def edges_from(
        self, module: str, kinds: Sequence[str] = ("eager",)
    ) -> List[ImportEdge]:
        """The outgoing edges of ``module`` for the given kinds."""
        wanted = set(kinds)
        return [
            edge
            for edge in self.edges
            if edge.source == module and edge.kind in wanted
        ]

    def shortest_cycle(
        self, kinds: Sequence[str] = ("eager",)
    ) -> Optional[List[str]]:
        """The shortest import cycle, as ``[a, b, ..., a]``.

        Deterministic: ties break toward the lexicographically first
        starting module and neighbors.  Returns ``None`` for a DAG.
        """
        adjacency = self.adjacency(kinds)
        best: Optional[List[str]] = None
        for start in sorted(adjacency):
            cycle = _bfs_cycle(start, adjacency)
            if cycle is not None and (
                best is None or len(cycle) < len(best)
            ):
                best = cycle
        return best


def _bfs_cycle(
    start: str, adjacency: Mapping[str, Sequence[str]]
) -> Optional[List[str]]:
    """Shortest path ``start -> ... -> start``, if one exists."""
    parent: Dict[str, str] = {}
    frontier = [start]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path + [start]
                if neighbor not in parent and neighbor != start:
                    parent[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = sorted(next_frontier)
    return None


def module_name_for(root: Path, file: Path) -> str:
    """Dotted module name of ``file`` under package root ``root``.

    The package is named after the root directory; no ``__init__.py``
    is required (namespace packages resolve the same way).
    """
    relative = file.relative_to(root)
    parts = [root.name] + list(relative.parts[:-1])
    if relative.parts[-1] != "__init__.py":
        parts.append(relative.parts[-1][: -len(".py")])
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _iter_imports(
    node: ast.AST, lazy: bool, typing_only: bool
) -> Iterator[Tuple[ast.stmt, str]]:
    """Yield ``(import statement, kind)`` under ``node``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if typing_only:
            kind = "typing"
        elif lazy:
            kind = "lazy"
        else:
            kind = "eager"
        yield node, kind
        return
    in_function = lazy or isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    )
    if isinstance(node, ast.If) and _is_type_checking_test(node.test):
        for child in node.body:
            yield from _iter_imports(child, in_function, True)
        for child in node.orelse:
            yield from _iter_imports(child, in_function, typing_only)
        return
    for child in ast.iter_child_nodes(node):
        yield from _iter_imports(child, in_function, typing_only)


def _longest_known(
    dotted: str, known: Mapping[str, FileContext]
) -> Optional[str]:
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in known:
            return candidate
    return None


def _resolve_targets(
    module: str,
    is_package: bool,
    statement: ast.stmt,
    known: Mapping[str, FileContext],
) -> Iterator[str]:
    """In-project modules one import statement binds."""
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            target = _longest_known(alias.name, known)
            if target is not None:
                yield target
        return
    if not isinstance(statement, ast.ImportFrom):
        return
    if statement.level:
        parts = module.split(".")
        package_parts = parts if is_package else parts[:-1]
        drop = statement.level - 1
        if drop > len(package_parts):
            return
        base_parts = package_parts[: len(package_parts) - drop]
        if not base_parts:
            return
        base = ".".join(base_parts)
        prefix = (
            f"{base}.{statement.module}" if statement.module else base
        )
    elif statement.module:
        prefix = statement.module
    else:
        return
    for alias in statement.names:
        if alias.name != "*":
            candidate = f"{prefix}.{alias.name}"
            if candidate in known:
                yield candidate
                continue
        target = _longest_known(prefix, known)
        if target is not None:
            yield target


def build_import_graph(root: Path) -> ImportGraph:
    """Parse every module under ``root`` (a package directory).

    Files that fail to parse are skipped -- the engine reports them
    separately as ``PARSE`` findings.
    """
    root = root.resolve()
    modules: Dict[str, FileContext] = {}
    for file in sorted(root.rglob("*.py")):
        name = module_name_for(root, file)
        context = parse_file(canonical_path(file), file.read_text(), name)
        if isinstance(context, FileContext):
            modules[name] = context
    return ImportGraph(modules)


def _resolve_edges(modules: Mapping[str, FileContext]) -> List[ImportEdge]:
    """The deduplicated in-project import edges of ``modules``."""
    edges: List[ImportEdge] = []
    seen: Set[Tuple[str, str, int, str]] = set()
    for name, info in modules.items():
        is_package = PurePosixPath(info.path).name == "__init__.py"
        for statement, kind in _iter_imports(info.tree, False, False):
            for target in _resolve_targets(
                name, is_package, statement, modules
            ):
                if target == name:
                    continue
                key = (name, target, statement.lineno, kind)
                if key in seen:
                    continue
                seen.add(key)
                edges.append(
                    ImportEdge(
                        source=name,
                        target=target,
                        line=statement.lineno,
                        col=statement.col_offset,
                        kind=kind,
                    )
                )
    return edges


__all__ = [
    "LAYER_LABELS",
    "LAYER_TABLE",
    "ImportEdge",
    "ImportGraph",
    "build_import_graph",
    "layer_of",
    "module_name_for",
]
