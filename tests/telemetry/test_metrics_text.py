"""Prometheus text exposition: name mapping, render/parse round trip.

The contract under ``GET /v1/metrics``: collector paths map onto the
flat Prometheus naming model (indexed segments become labels), the
rendered document is deterministic, and :func:`parse_prometheus` reads
every rendered sample straight back — which is exactly how the CI
smoke run asserts metric values.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    Collector,
    Histogram,
    metric_name,
    parse_prometheus,
    render_prometheus,
    sample_value,
)


class TestMetricName:
    def test_plain_path_joins_with_namespace(self):
        name, labels = metric_name("serve/latency/queue_wait_seconds")
        assert name == "repro_serve_latency_queue_wait_seconds"
        assert labels == {}

    def test_dots_flatten_to_underscores(self):
        name, _ = metric_name("serve/jobs.done")
        assert name == "repro_serve_jobs_done"

    def test_indexed_segment_becomes_label(self):
        name, labels = metric_name("serve/tenant[alice]/jobs.done")
        assert name == "repro_serve_tenant_jobs_done"
        assert labels == {"tenant": "alice"}

    def test_repeated_base_names_get_positional_suffix(self):
        _, labels = metric_name("tile[a]/tile[b]/reads")
        assert labels == {"tile": "a", "tile_2": "b"}

    def test_indexed_segment_with_metric_suffix(self):
        name, labels = metric_name("pipeline/stage[2].busy_cycles")
        assert name == "repro_pipeline_stage_busy_cycles"
        assert labels == {"stage": "2"}


class TestRender:
    def _collector(self):
        collector = Collector()
        collector.count("serve/jobs.done", 3)
        collector.count("serve/tenant[alice]/jobs.done", 2)
        collector.count("serve/tenant[bob]/jobs.done", 1)
        collector.observe("coalesce/batch_size_jobs", 8, bounds=[4.0, 16.0])
        collector.observe("coalesce/batch_size_jobs", 32, bounds=[4.0, 16.0])
        return collector

    def test_gauges_and_histograms_render(self):
        collector = self._collector()
        text = render_prometheus(
            collector.counters(), collector.histograms()
        )
        assert "# TYPE repro_serve_jobs_done gauge" in text
        assert "repro_serve_jobs_done 3" in text
        assert 'repro_serve_tenant_jobs_done{tenant="alice"} 2' in text
        assert "# TYPE repro_coalesce_batch_size_jobs histogram" in text
        # Cumulative buckets: nothing <= 4, one <= 16, two total.
        assert 'repro_coalesce_batch_size_jobs_bucket{le="4.0"} 0' in text
        assert 'repro_coalesce_batch_size_jobs_bucket{le="16.0"} 1' in text
        assert 'repro_coalesce_batch_size_jobs_bucket{le="+Inf"} 2' in text
        assert "repro_coalesce_batch_size_jobs_count 2" in text
        assert text.endswith("\n")

    def test_render_is_deterministic(self):
        first = self._collector()
        second = self._collector()
        assert render_prometheus(
            first.counters(), first.histograms()
        ) == render_prometheus(second.counters(), second.histograms())

    def test_empty_collector_renders_empty_document(self):
        assert render_prometheus({}, {}) == "\n"


class TestParseRoundTrip:
    def test_every_rendered_sample_parses_back(self):
        collector = TestRender()._collector()
        text = render_prometheus(
            collector.counters(), collector.histograms()
        )
        samples = parse_prometheus(text)
        assert sample_value(samples, "repro_serve_jobs_done") == 3.0
        assert sample_value(
            samples,
            "repro_serve_tenant_jobs_done",
            {"tenant": "bob"},
        ) == 1.0
        assert sample_value(
            samples,
            "repro_coalesce_batch_size_jobs_bucket",
            {"le": "+Inf"},
        ) == 2.0
        assert sample_value(
            samples, "repro_coalesce_batch_size_jobs_sum"
        ) == 40.0

    def test_label_escaping_round_trips(self):
        collector = Collector()
        collector.count('tenant[we"ird\\name]/jobs.done', 1)
        text = render_prometheus(collector.counters(), {})
        samples = parse_prometheus(text)
        assert sample_value(
            samples,
            "repro_tenant_jobs_done",
            {"tenant": 'we"ird\\name'},
        ) == 1.0

    def test_infinities_round_trip(self):
        assert parse_prometheus("m_bucket 3\nm_inf +Inf\n")[
            ("m_inf", ())
        ] == math.inf

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is not a sample\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus("# HELP x y\n\n# TYPE x gauge\n") == {}

    def test_sample_value_default(self):
        assert sample_value({}, "missing", default=-1.0) == -1.0


#: Collector paths in the ``repro check`` TEL001 grammar: ``/``-joined
#: segments of ``.``-joined atoms, each with an optional ``[idx]``.
_ATOM = st.builds(
    lambda name, index: name if index is None else f"{name}[{index}]",
    st.from_regex(r"[a-z0-9_]{1,6}", fullmatch=True),
    st.none() | st.from_regex(r"[a-z0-9_.,=+-]{0,5}", fullmatch=True),
)
_PATH = st.lists(
    st.lists(_ATOM, min_size=1, max_size=2).map(".".join),
    min_size=1,
    max_size=4,
).map("/".join)
_VALUE = st.integers(-(10**12), 10**12) | st.floats(
    allow_nan=False, allow_infinity=False
)


def _key(name, labels):
    return (name, tuple(sorted(labels.items())))


def _histogram(bounds, samples):
    histogram = Histogram(sorted(set(bounds)))
    for sample in samples:
        histogram.observe(sample)
    return histogram.to_dict()


_HISTOGRAM = st.builds(
    _histogram,
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
    st.lists(st.floats(-1e6, 1e6), max_size=6),
)


class TestRoundTripProperty:
    @given(
        st.dictionaries(_PATH, _VALUE, max_size=6),
        st.dictionaries(_PATH, _HISTOGRAM, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_value_parses_back_at_its_key(self, counters, histograms):
        expected = {}
        for path, value in counters.items():
            expected[_key(*metric_name(path))] = float(value)
        for path, view in histograms.items():
            name, labels = metric_name(path)
            assume("le" not in labels)
            cumulative = 0
            for bound, count in zip(view["bounds"], view["counts"]):
                cumulative += count
                le = {**labels, "le": repr(float(bound))}
                expected[_key(f"{name}_bucket", le)] = cumulative
            le = {**labels, "le": "+Inf"}
            expected[_key(f"{name}_bucket", le)] = view["count"]
            expected[_key(f"{name}_sum", labels)] = view["sum"]
            expected[_key(f"{name}_count", labels)] = view["count"]
        samples_per_histogram = {
            path: len(view["bounds"]) + 3
            for path, view in histograms.items()
        }
        # Distinct paths may flatten onto one key (``a/b`` and
        # ``a_b``); the property covers the paths that do not.
        assume(
            len(expected)
            == len(counters) + sum(samples_per_histogram.values())
        )
        parsed = parse_prometheus(render_prometheus(counters, histograms))
        assert parsed == expected
