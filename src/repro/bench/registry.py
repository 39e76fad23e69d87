"""Benchmark registry: one catalogue for every ``bench_*`` module.

The repository's benchmarks live in ``benchmarks/bench_<name>.py``.
Each module decorates its entry point with :func:`register`, declaring
a name and a suite tier; the entry point takes no arguments and
returns the bench documents it recorded.  :func:`discover` imports
every ``bench_*`` module under a directory so the registrations
execute, and the unified runner (:mod:`repro.bench.runner`, CLI
``repro bench``) — the one way to run a bench — calls them.

Suite tiers
-----------
``quick``
    Seconds-scale benches, safe for every CI run (the default).
``full``
    Everything in ``quick`` plus the minutes-scale benches; selected
    with ``repro bench --suite full``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

SUITES = ("quick", "full")


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark entry point."""

    name: str
    func: Callable
    suite: str
    source: str

    def selected_by(self, suite: str) -> bool:
        """Whether a run of ``suite`` includes this bench."""
        if suite == "full":
            return True
        return self.suite == "quick"


_REGISTRY: Dict[str, BenchSpec] = {}


def register(
    func: Optional[Callable] = None,
    *,
    name: Optional[str] = None,
    suite: str = "quick",
):
    """Register a benchmark entry point (decorator).

    Returns the function unchanged.  ``name`` defaults to the function
    name with a leading ``bench_`` stripped; ``suite`` is the smallest
    suite tier that includes the bench.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")

    def wrap(target: Callable) -> Callable:
        bench_name = name or target.__name__
        if bench_name.startswith("bench_"):
            bench_name = bench_name[len("bench_"):]
        _REGISTRY[bench_name] = BenchSpec(
            name=bench_name,
            func=target,
            suite=suite,
            source=inspect.getsourcefile(target) or "",
        )
        return target

    if func is not None:
        return wrap(func)
    return wrap


def registered() -> Dict[str, BenchSpec]:
    """All registrations seen so far (name -> spec), sorted by name."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def clear_registry() -> None:
    """Drop every registration (test isolation helper)."""
    _REGISTRY.clear()


def default_bench_dir() -> Path:
    """The repository's ``benchmarks/`` directory, if findable.

    Prefers ``./benchmarks`` relative to the working directory (the
    normal checkout layout); falls back to the directory next to this
    installed package's repository root.
    """
    cwd_dir = Path.cwd() / "benchmarks"
    if cwd_dir.is_dir():
        return cwd_dir
    repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "benchmarks"


def discover(bench_dir: Optional[Path] = None) -> List[BenchSpec]:
    """Import every ``bench_*.py`` under ``bench_dir`` and collect specs.

    The directory must be an importable package (``__init__.py``); its
    parent is added to ``sys.path`` when needed.  Returns the specs
    whose source file lives under ``bench_dir`` — registrations from
    other directories (earlier discoveries, inline test registrations)
    are left in the registry but not returned.
    """
    bench_dir = Path(bench_dir or default_bench_dir()).resolve()
    if not bench_dir.is_dir():
        raise FileNotFoundError(
            f"benchmark directory {bench_dir} does not exist"
        )
    if not (bench_dir / "__init__.py").is_file():
        raise FileNotFoundError(
            f"benchmark directory {bench_dir} is not a package "
            "(missing __init__.py)"
        )
    parent = str(bench_dir.parent)
    if parent not in sys.path:
        sys.path.insert(0, parent)
    package = bench_dir.name
    for module_file in sorted(bench_dir.glob("bench_*.py")):
        importlib.import_module(f"{package}.{module_file.stem}")
    specs = [
        spec
        for spec in _REGISTRY.values()
        if spec.source and Path(spec.source).resolve().parent == bench_dir
    ]
    return sorted(specs, key=lambda spec: spec.name)
