"""Small argument-validation helpers used across the library, plus
:func:`check_document`, the one checker every JSON document validator
runs its shape table through.

These raise ``ValueError`` with a consistent message format so tests can
assert on failure modes, and so configuration errors surface at
construction time instead of deep inside a simulation loop.
"""

from __future__ import annotations

import numbers
import sys
from typing import Any, Callable, Sequence, Tuple


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, low: float, high: float) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def check_choice(name: str, value: str, choices: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(
            f"{name} must be one of {sorted(choices)}, got {value!r}"
        )


#: Shape of a real number, NumPy scalars included (``bool`` never counts).
Number = numbers.Real


class Where:
    """Shape of a value that has ``shape`` and then passes ``test``."""

    def __init__(self, shape: Any, test: Callable[[Any], Any],
                 expected: str) -> None:
        self.shape, self.test, self.expected = shape, test, expected


def non_empty(shape: Any) -> Where:
    """Shape of a str, list or map of ``shape`` with at least one entry."""
    name = getattr(shape, "__name__", type(shape).__name__)
    return Where(shape, len, f"non-empty {name}")


#: Bounded numbers must also fit a float: no NaN, infinity or huge int.
_FLOAT_MAX = sys.float_info.max
POSITIVE = Where(Number, lambda v: 0 < v <= _FLOAT_MAX, "number > 0")
NON_NEGATIVE = Where(Number, lambda v: 0 <= v <= _FLOAT_MAX, "number >= 0")
POSITIVE_INT = Where(int, lambda v: v > 0, "int > 0")
COUNT = Where(int, lambda v: v >= 0, "int >= 0")


def check_document(document: Any, shape: Any, name: str) -> Any:
    """Return ``document`` if it has ``shape``, else raise ``ValueError``.

    A shape is a plain literal:

    * a type, or a tuple of types such as ``(str, type(None))``;
      ``object`` matches anything, and ``bool`` matches only ``bool``
      and ``object``, never ``int`` or :data:`Number`;
    * a ``dict`` of key -> shape.  Every key is required unless it ends
      in ``?``; the key ``str`` gives the shape of every key the dict
      does not name (a str-keyed map); other keys are allowed;
    * ``[item]``: a list whose every element has shape ``item``;
    * a ``frozenset``: one of its members;
    * :class:`Where`: a shape plus a test, as in :data:`POSITIVE`,
      :data:`COUNT` or :func:`non_empty`;
    * any other value: exactly that value, of exactly its type.

    The message names the failing path, e.g.
    ``table1_report.pipelayer.per_workload[0].network: expected str,
    got int``.
    """
    _check(document, shape, name)
    return document


def _check(value: Any, shape: Any, path: str) -> None:
    if isinstance(shape, Where):
        _check(value, shape.shape, path)
        if not shape.test(value):
            raise ValueError(
                f"{path}: expected {shape.expected}, got {value!r}"
            )
        return
    if not isinstance(shape, (type, tuple, dict, list)):
        if isinstance(shape, frozenset):
            members, expected = shape, f"one of {sorted(shape)}"
        else:
            members, expected = frozenset([shape]), repr(shape)
        if not any(type(value) is type(m) and value == m for m in members):
            raise ValueError(f"{path}: expected {expected}, got {value!r}")
        return
    if isinstance(shape, (dict, list)):
        kinds: Tuple[type, ...] = (type(shape),)
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
    if not isinstance(value, kinds) or (
        type(value) is bool and not {bool, object} & set(kinds)
    ):
        expected = " or ".join(
            "number" if kind is Number else kind.__name__ for kind in kinds
        )
        raise ValueError(
            f"{path}: expected {expected}, got {type(value).__name__}"
        )
    if isinstance(shape, list):
        for index, item in enumerate(value):
            _check(item, shape[0], f"{path}[{index}]")
    elif isinstance(shape, dict):
        named = set()
        for key, item_shape in shape.items():
            if key is not str:
                name = key.rstrip("?")
                named.add(name)
                if name in value:
                    _check(value[name], item_shape, f"{path}.{name}")
                elif name == key:
                    raise ValueError(f"{path}: missing key {key!r}")
        if str in shape:
            for key, item in value.items():
                if key not in named:
                    _check(key, str, f"{path} key {key!r}")
                    _check(item, shape[str], f"{path}.{key}")
