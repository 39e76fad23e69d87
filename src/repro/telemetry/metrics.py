"""Prometheus text exposition over a collector, stdlib-only.

Maps the collector's ``/``-separated hierarchical paths onto the flat
Prometheus naming model:

* each ``seg[idx]`` path segment becomes a **label** ``seg="idx"``
  (``serve/tenant[alice]/jobs[inference]`` ->
  ``repro_serve_tenant_jobs{jobs="inference",tenant="alice"}``), also
  when ``.metric`` suffixes follow it (``stage[2].busy_cycles`` ->
  ``..._stage_busy_cycles{stage="2"}``);
* the remaining segment names (dots flattened to underscores) join
  into the metric name under the ``repro_`` namespace;
* plain counters/gauges expose as ``gauge`` samples; histograms
  (:class:`repro.telemetry.Histogram`) expose in the native histogram
  format — cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
  ``_count``.

Rendering is deterministic: metrics sort by (name, labels), floats
print through ``repr`` (shortest round-trip form).  The parser here
is the test/CLI half of the contract — ``repro top`` and the smoke
tests scrape ``GET /v1/metrics`` and parse the values straight back.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Tuple, Union

_Number = Union[int, float]

#: Prefix of every exposed metric name (one namespace per exporter).
METRIC_NAMESPACE = "repro"

_INDEXED_SEGMENT = re.compile(r"^([a-z0-9_.]+)\[(.*)\]((?:\.[a-z0-9_]+)*)$")
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: A parsed sample key: ``(metric name, sorted (label, value) pairs)``.
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metric_name(path: str) -> Tuple[str, Dict[str, str]]:
    """Prometheus ``(name, labels)`` for one collector path.

    Indexed segments turn into labels keyed by their base name (with a
    leading ``_`` when it starts with a digit); a repeated base name
    gets a positional suffix so nothing collides.
    """
    parts: List[str] = [METRIC_NAMESPACE]
    labels: Dict[str, str] = {}
    for segment in path.split("/"):
        match = _INDEXED_SEGMENT.match(segment)
        if match:
            base, index, metric = match.groups()
            name_part = _NAME_SANITIZE.sub("_", base)
            # A label name may not start with a digit.
            label = f"_{name_part}" if name_part[0].isdigit() else name_part
            key = label
            suffix = 2
            while key in labels:
                key = f"{label}_{suffix}"
                suffix += 1
            labels[key] = index
            parts.append(name_part)
            parts.append(_NAME_SANITIZE.sub("_", metric[1:]))
        else:
            parts.append(_NAME_SANITIZE.sub("_", segment))
    return "_".join(part for part in parts if part), labels


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_block(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + body + "}"


def _format_value(value: _Number) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(
    counters: Mapping[str, _Number],
    histograms: Mapping[str, Mapping[str, Any]],
) -> str:
    """The full exposition document (``GET /v1/metrics`` body).

    Counter paths expose as ``gauge`` (the collector's ``set`` makes
    them non-monotonic in general); histogram paths expose as
    cumulative-bucket ``histogram`` families.  Output ends with a
    newline, as the text format requires.
    """
    lines: List[str] = []
    typed: "set[str]" = set()

    gauge_samples: List[Tuple[str, str, _Number]] = []
    for path in sorted(counters):
        name, labels = metric_name(path)
        gauge_samples.append((name, _label_block(labels), counters[path]))
    for name, label_block, value in sorted(
        gauge_samples, key=lambda sample: (sample[0], sample[1])
    ):
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{label_block} {_format_value(value)}")

    for path in sorted(histograms):
        view = histograms[path]
        name, labels = metric_name(path)
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(view["bounds"], view["counts"]):
            cumulative += int(count)
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(float(bound))
            lines.append(
                f"{name}_bucket{_label_block(bucket_labels)} "
                f"{cumulative}"
            )
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(
            f"{name}_bucket{_label_block(bucket_labels)} "
            f"{int(view['count'])}"
        )
        label_block = _label_block(labels)
        lines.append(
            f"{name}_sum{label_block} {_format_value(view['sum'])}"
        )
        lines.append(f"{name}_count{label_block} {int(view['count'])}")
    return "\n".join(lines) + "\n"


_ESCAPE_SEQUENCE = re.compile(r"\\(.)")
_UNESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape_label(value: str) -> str:
    # Single pass: sequential str.replace would corrupt a literal
    # backslash followed by 'n' (escaped as '\\n') into a newline.
    return _ESCAPE_SEQUENCE.sub(
        lambda match: _UNESCAPES.get(match.group(1), match.group(1)),
        value,
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_prometheus(text: str) -> Dict[SampleKey, float]:
    """Parse an exposition document back into ``sample key -> value``.

    The inverse of :func:`render_prometheus` for everything the tests
    and ``repro top`` need: comments/TYPE lines are skipped, each
    sample keys on ``(name, sorted label pairs)``.  Raises
    ``ValueError`` on a malformed sample line.
    """
    samples: Dict[SampleKey, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed metrics line: {raw!r}")
        name, label_body, value = match.groups()
        labels: List[Tuple[str, str]] = []
        if label_body:
            labels = [
                (key, _unescape_label(val))
                for key, val in _LABEL_PAIR.findall(label_body)
            ]
        samples[(name, tuple(sorted(labels)))] = _parse_value(value)
    return samples


def sample_value(
    samples: Mapping[SampleKey, float],
    name: str,
    labels: "Union[Mapping[str, str], None]" = None,
    default: float = 0.0,
) -> float:
    """One sample's value by name + labels (``default`` if absent)."""
    pairs = labels.items() if labels is not None else ()
    key = (name, tuple(sorted((k, str(v)) for k, v in pairs)))
    return samples.get(key, default)


__all__ = [
    "METRIC_NAMESPACE",
    "SampleKey",
    "metric_name",
    "parse_prometheus",
    "render_prometheus",
    "sample_value",
]
