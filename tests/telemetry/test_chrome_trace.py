"""Chrome-trace export round-trip for collector spans.

``trace_chrome_document(collector.spans())``, written through the same
JSON writer the sweep uses, must produce a file that parses back with
one complete (``X``) event per recorded span laid out in wall-clock
microseconds, and the nesting relationship between parent and child
spans must be recoverable both from the event intervals (child inside
parent) and from the ``parent_id`` links.
"""

import json
import time

from repro.telemetry import (
    Collector,
    TraceSpan,
    trace_chrome_document,
    validate_trace_chrome_document,
)
from repro.utils.io import write_json_atomic


def _nested_workload(collector):
    with collector.span("outer"):
        with collector.span("inner_a"):
            time.sleep(0.001)
        with collector.span("inner_b"):
            with collector.span("leaf"):
                time.sleep(0.001)


def _written(collector, tmp_path):
    path = write_json_atomic(
        tmp_path / "trace.json", trace_chrome_document(collector.spans())
    )
    loaded = json.loads(path.read_text())
    validate_trace_chrome_document(loaded)
    return loaded


class TestChromeTraceRoundTrip:
    def test_event_count_matches_span_count(self, tmp_path):
        collector = Collector()
        _nested_workload(collector)
        loaded = _written(collector, tmp_path)
        complete = [
            event for event in loaded["traceEvents"]
            if event["ph"] == "X"
        ]
        assert len(complete) == len(collector.spans()) == 4
        assert {event["name"] for event in complete} == {
            "outer", "inner_a", "inner_b", "leaf"
        }

    def test_nesting_recoverable_from_intervals(self, tmp_path):
        collector = Collector()
        _nested_workload(collector)
        events = {
            event["name"]: event
            for event in _written(collector, tmp_path)["traceEvents"]
            if event["ph"] == "X"
        }

        def contains(parent, child):
            return (
                parent["ts"] <= child["ts"]
                and child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-3
            )

        outer = events["outer"]
        for name in ("inner_a", "inner_b", "leaf"):
            assert contains(outer, events[name]), name
        assert contains(events["inner_b"], events["leaf"])
        # Wall layout: the sleeps show up as >= 1 ms (1000 us) spans.
        assert events["leaf"]["dur"] >= 1000.0
        # Parent links mirror the parent/child ordering.
        parents = {
            name: event["args"]["parent_id"]
            for name, event in events.items()
        }
        assert parents["outer"] is None
        assert parents["inner_a"] == outer["args"]["span_id"]
        assert parents["inner_b"] == outer["args"]["span_id"]
        assert parents["leaf"] == events["inner_b"]["args"]["span_id"]
        # Siblings do not overlap.
        a, b = events["inner_a"], events["inner_b"]
        assert a["ts"] + a["dur"] <= b["ts"] + 1e-3

    def test_metadata_event_present(self, tmp_path):
        collector = Collector()
        _nested_workload(collector)
        loaded = _written(collector, tmp_path)
        metadata = [
            event for event in loaded["traceEvents"]
            if event["ph"] == "M"
        ]
        assert metadata and metadata[0]["name"] == "process_name"

    def test_logical_ticks_when_any_span_lacks_wall_times(self):
        """Mixing in a span without wall times switches the whole
        document to the logical-tick layout."""
        collector = Collector()
        _nested_workload(collector)
        spans = collector.spans()
        untimed = TraceSpan(
            trace_id="t", span_id="0", parent_id=None, name="untimed",
            proc="other", start=1, end=4,
        )
        events = [
            event
            for event in trace_chrome_document(spans + [untimed])[
                "traceEvents"
            ]
            if event["ph"] == "X"
        ]
        by_name = {event["name"]: event for event in events}
        assert by_name["untimed"]["dur"] == 3.0
        for span in spans:
            event = by_name[span.name]
            assert event["ts"] == float(span.start)
            assert event["dur"] == float(span.end - span.start)
