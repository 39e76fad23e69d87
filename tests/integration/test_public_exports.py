"""Every name a ``repro`` module lists in ``__all__`` exists.

A deleted function that stays in an ``__all__`` list only fails when
someone star-imports the module; this test fails at once instead.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


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
