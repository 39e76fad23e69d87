"""Deterministic tracing: ids, logical clocks, the carrier round trip.

These are the properties the serve and sweep layers lean on: content-
hashed trace ids, collision-free hierarchical span ids, logical-clock
timestamps (no wall time unless a collector sets it), and a
fork/adopt/absorb round trip whose stitched result is a pure function
of the work — so the same run always yields the same trace bytes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    TraceContext,
    TraceLog,
    TraceSpan,
    span_sort_key,
    trace_chrome_document,
    trace_document,
    trace_id_for,
    validate_trace_document,
)


class TestIds:
    def test_trace_id_is_deterministic_hash(self):
        assert trace_id_for("job-00001") == trace_id_for("job-00001")
        assert trace_id_for("job-00001") != trace_id_for("job-00002")
        assert len(trace_id_for("sweep")) == 16

    def test_span_sort_key_orders_hierarchically(self):
        ids = ["0.10", "0", "0.2", "0.2.1", "0.1"]
        assert sorted(ids, key=span_sort_key) == [
            "0", "0.1", "0.2", "0.2.1", "0.10",
        ]

    def test_child_ids_allocate_sequentially(self):
        log = TraceLog()
        root = TraceContext.root("job", log)
        assert root.span_id == "0"
        first = root.start("a")
        second = root.start("b")
        grandchild = first.start("c")
        assert first.span_id == "0.0"
        assert second.span_id == "0.1"
        assert grandchild.span_id == "0.0.0"
        assert grandchild.parent_id == "0.0"


class TestLogicalClock:
    def test_ticks_start_at_one_and_order_spans(self):
        log = TraceLog(proc="p")
        root = TraceContext.root("job", log)
        with root.span("inner"):
            pass
        root.finish()
        spans = {span.span_id: span for span in log.spans()}
        assert spans["0"].start == 1
        assert spans["0.0"].start == 2
        assert spans["0.0"].end == 3
        assert spans["0"].end == 4

    def test_finish_twice_raises(self):
        root = TraceContext.root("job", TraceLog())
        root.finish()
        with pytest.raises(RuntimeError):
            root.finish()

    def test_span_closes_on_exception(self):
        log = TraceLog()
        root = TraceContext.root("job", log)
        with pytest.raises(ValueError):
            with root.span("inner"):
                raise ValueError("boom")
        assert [span.name for span in log.spans()] == ["inner"]

    def test_max_spans_bounds_storage(self):
        log = TraceLog(max_spans=1)
        root = TraceContext.root("job", log)
        with root.span("a"):
            pass
        with root.span("b"):
            pass
        assert len(log.spans()) == 1
        assert log.dropped == 1


class TestCarrierRoundTrip:
    def _stitched(self):
        """Parent forks two units; workers adopt, record, ship home."""
        parent_log = TraceLog(proc="server")
        root = TraceContext.root("job-1", parent_log)
        remote_payloads = []
        for name in ("unit-a", "unit-b"):
            carrier = root.fork("unit", proc=name)
            # The carrier must survive the canonical-JSON round trip a
            # sweep payload goes through.
            carrier = json.loads(json.dumps(carrier, sort_keys=True))
            worker_log = TraceLog(proc=name)
            context = TraceContext.adopt(carrier, worker_log)
            with context.span("evaluate"):
                pass
            context.finish({"jobs": 1})
            remote_payloads.append(worker_log.to_dicts())
        for payload in remote_payloads:
            parent_log.absorb(payload)
        root.finish()
        return parent_log, root.trace_id

    def test_stitched_trace_is_one_connected_tree(self):
        log, trace_id = self._stitched()
        document = trace_document(trace_id, log.spans_for(trace_id))
        validate_trace_document(document)
        assert document["span_count"] == 5  # root + 2 x (unit, evaluate)
        assert document["procs"] == ["server", "unit-a", "unit-b"]

    def test_forked_ids_never_collide(self):
        log, trace_id = self._stitched()
        ids = [span.span_id for span in log.spans_for(trace_id)]
        assert len(ids) == len(set(ids))
        assert ids == ["0", "0.0", "0.0.0", "0.1", "0.1.0"]

    def test_worker_clocks_are_independent(self):
        log, trace_id = self._stitched()
        units = [
            span for span in log.spans_for(trace_id)
            if span.name == "unit"
        ]
        # Both units start at tick 1 of their own lane — absorption
        # never rebased them onto the server clock.
        assert [span.start for span in units] == [1, 1]

    def test_round_trip_is_byte_identical(self):
        first_log, trace_id = self._stitched()
        second_log, _ = self._stitched()
        first = trace_document(trace_id, first_log.spans_for(trace_id))
        second = trace_document(trace_id, second_log.spans_for(trace_id))
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_absorb_accepts_generators(self):
        log = TraceLog()
        span = TraceSpan(
            trace_id="t", span_id="0", parent_id=None, name="n",
            proc="p", start=1, end=2,
        )
        assert log.absorb(s.to_dict() for s in [span]) == 1


class TestValidation:
    def test_rejects_disconnected_trace(self):
        orphan = TraceSpan(
            trace_id=trace_id_for("job"), span_id="0.5",
            parent_id="0.9", name="lost", proc="p", start=1, end=2,
        )
        document = trace_document(trace_id_for("job"), [orphan])
        with pytest.raises(ValueError, match="not connected"):
            validate_trace_document(document)

    def test_rejects_span_ending_before_start(self):
        bad = TraceSpan(
            trace_id=trace_id_for("job"), span_id="0",
            parent_id=None, name="r", proc="p", start=5, end=2,
        )
        document = trace_document(trace_id_for("job"), [bad])
        with pytest.raises(ValueError, match="end >= start"):
            validate_trace_document(document)

    def test_document_filters_foreign_trace_ids(self):
        mine = TraceSpan(
            trace_id=trace_id_for("mine"), span_id="0",
            parent_id=None, name="r", proc="p", start=1, end=2,
        )
        theirs = TraceSpan(
            trace_id=trace_id_for("theirs"), span_id="0",
            parent_id=None, name="r", proc="p", start=1, end=2,
        )
        document = trace_document(trace_id_for("mine"), [mine, theirs])
        assert document["span_count"] == 1


class TestChromeExport:
    def test_procs_get_distinct_pid_lanes(self):
        log, trace_id = (
            TestCarrierRoundTrip()._stitched()
        )
        document = trace_chrome_document(log.spans_for(trace_id))
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        lanes = {e["args"]["name"]: e["pid"] for e in metadata}
        assert set(lanes) == {"server", "unit-a", "unit-b"}
        assert len(set(lanes.values())) == 3
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 5
        for event in spans:
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == trace_id

    def test_export_accepts_dict_records(self):
        log, trace_id = TestCarrierRoundTrip()._stitched()
        from_spans = trace_chrome_document(log.spans_for(trace_id))
        from_dicts = trace_chrome_document(
            [span.to_dict() for span in log.spans_for(trace_id)]
        )
        assert from_spans == from_dicts


_names = st.text(min_size=1, max_size=12)
_span_ids = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=4
).map(lambda parts: ".".join(map(str, parts)))
_wall = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _trace_spans(draw, wall):
    start = draw(st.integers(min_value=0, max_value=10_000))
    attrs = draw(
        st.dictionaries(
            _names,
            st.one_of(st.integers(), st.booleans(), _names, st.none()),
            max_size=3,
        )
    )
    return TraceSpan(
        trace_id=draw(_names),
        span_id=draw(_span_ids),
        parent_id=draw(st.one_of(st.none(), _span_ids)),
        name=draw(_names),
        proc=draw(_names),
        start=start,
        end=start + draw(st.integers(min_value=0, max_value=10_000)),
        attrs=tuple(sorted(attrs.items())),
        wall_start_s=draw(_wall) if wall else None,
        wall_duration_s=draw(_wall) if wall else None,
    )


class TestSpanRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(span=st.one_of(_trace_spans(wall=False), _trace_spans(wall=True)))
    def test_dict_round_trip_is_identity(self, span):
        record = span.to_dict()
        assert TraceSpan.from_dict(record) == span
        # ... through the canonical JSON a cross-process payload uses.
        wire = json.loads(json.dumps(record, sort_keys=True))
        assert TraceSpan.from_dict(wire) == span

    @settings(max_examples=30, deadline=None)
    @given(span=_trace_spans(wall=False))
    def test_untimed_dict_carries_no_wall_keys(self, span):
        """Sweep/serve spans keep their pre-wall-field bytes."""
        assert set(span.to_dict()) == {
            "trace_id", "span_id", "parent_id", "name", "proc", "start",
            "end", "attrs",
        }
