"""Every name a ``repro`` module lists in ``__all__`` exists, and every
module is reached from outside itself.

A deleted function that stays in an ``__all__`` list only fails when
someone star-imports the module; this test fails at once instead.
A module that only its own tests call is dead library code; the reach
check below fails when one appears.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Directories whose code counts as a use of a ``repro`` module.
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Modules kept although no caller names them, each with its reason.
UNREACHED_KEEP = {
    "core/pipelined_gan.py": "the ReGAN pipelining oracle that "
    "tests/nn/test_conv_goldens.py pins",
}


def _modules_with_all():
    """Dotted names of the ``repro`` modules that define ``__all__``."""
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if not re.search(r"^__all__\b", text, re.M):
            continue
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


@pytest.mark.parametrize("module_name", list(_modules_with_all()))
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing {missing}"


def _top_level_names(path: Path) -> set:
    """Functions, classes and variables ``path`` defines at top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _caller_files():
    """Non-``__init__`` files that may use a module, with their text."""
    perfbench_tests = REPO_ROOT / "perfbench" / "tests"
    for directory in CALLER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py" or perfbench_tests in path.parents:
                continue
            yield path, path.read_text(encoding="utf-8")


def test_every_module_is_reached():
    """Some other caller file names each module's path or a name it defines.

    Package ``__init__`` re-exports do not count: a name only an
    ``__init__`` and the tests mention is not used by the program.
    """
    callers = [
        (path, text, set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)))
        for path, text in _caller_files()
    ]
    unreached = []
    for module in sorted(SOURCE_ROOT.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        relative = module.relative_to(SOURCE_ROOT).as_posix()
        dotted = ".".join(
            module.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
        )
        names = _top_level_names(module)
        reached = any(
            path != module and (dotted in text or names & identifiers)
            for path, text, identifiers in callers
        )
        if not reached and relative not in UNREACHED_KEEP:
            unreached.append(relative)
    assert not unreached, (
        f"no caller in {CALLER_DIRS} names these modules or their "
        f"names: {unreached}; delete them or give a reason in "
        f"UNREACHED_KEEP"
    )
    stale = [r for r in UNREACHED_KEEP if not (SOURCE_ROOT / r).is_file()]
    assert not stale, f"UNREACHED_KEEP names missing modules {stale}"
