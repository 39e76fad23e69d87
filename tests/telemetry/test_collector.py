"""Unit tests for the telemetry collector, scoping, and exporters."""

import json

import pytest

# ``bench_document`` is aliased: the repo's pytest config collects
# ``bench_*`` functions (the benchmark harness), and a bare import
# would be picked up as a test.
from repro.telemetry import (
    DEFAULT_MAX_SPANS,
    NULL_COLLECTOR,
    SCHEMA_VERSION,
    Collector,
    TraceSpan,
    profile_report,
    trace_chrome_document,
    validate_bench_document,
    validate_profile_report,
)
from repro.utils.io import write_json_atomic
from repro.telemetry import bench_document as make_bench_document


class TestCounters:
    def test_count_accumulates(self):
        collector = Collector()
        collector.count("a/b", 2)
        collector.count("a/b", 3)
        assert collector.get("a/b") == 5

    def test_default_increment_is_one(self):
        collector = Collector()
        collector.count("hits")
        collector.count("hits")
        assert collector.get("hits") == 2

    def test_set_is_a_gauge(self):
        collector = Collector()
        collector.count("makespan", 10)
        collector.set("makespan", 3)
        assert collector.get("makespan") == 3

    def test_get_default(self):
        assert Collector().get("missing", default=-1) == -1

    def test_counters_sorted_by_path(self):
        collector = Collector()
        collector.count("z")
        collector.count("a")
        collector.count("m/x")
        assert list(collector.counters()) == ["a", "m/x", "z"]

    def test_counter_tree_nests_by_slash(self):
        collector = Collector()
        collector.count("engine/fc1/reads", 4)
        collector.count("engine/fc1/tile[pos,0]/reads", 2)
        tree = collector.counter_tree()
        assert tree["engine"]["fc1"]["reads"] == 4
        assert tree["engine"]["fc1"]["tile[pos,0]"]["reads"] == 2

    def test_counter_tree_node_and_leaf_conflict(self):
        """A path that is both a leaf and a prefix keeps both values."""
        collector = Collector()
        collector.count("a/b", 1)
        collector.count("a/b/c", 2)
        tree = collector.counter_tree()
        assert tree["a"]["b"][""] == 1
        assert tree["a"]["b"]["c"] == 2


class TestMergeCounters:
    def test_merge_is_additive(self):
        collector = Collector()
        collector.count("a/b", 1)
        collector.merge_counters({"a/b": 2, "c": 5})
        assert collector.get("a/b") == 3
        assert collector.get("c") == 5

    def test_merge_order_independent(self):
        one, two = Collector(), Collector()
        one.merge_counters({"x": 1, "y": 2})
        one.merge_counters({"y": 3})
        two.merge_counters({"y": 3})
        two.merge_counters({"y": 2, "x": 1})
        assert one.counters() == two.counters()

    def test_scoped_merge_prefixes(self):
        collector = Collector()
        collector.scope("cell[a]").merge_counters({"work": 2, "n/m": 1})
        assert collector.counters() == {
            "cell[a]/n/m": 1,
            "cell[a]/work": 2,
        }

    def test_disabled_merge_is_noop(self):
        collector = Collector(enabled=False)
        collector.merge_counters({"a": 1})
        collector.scope("s").merge_counters({"a": 1})
        assert collector.counters() == {}


class TestDisabled:
    def test_disabled_mutators_are_noops(self):
        collector = Collector(enabled=False)
        collector.count("x", 5)
        collector.set("y", 7)
        with collector.span("s"):
            pass
        assert collector.counters() == {}
        assert collector.spans() == []
        assert not collector

    def test_null_collector_is_disabled(self):
        assert not NULL_COLLECTOR.enabled
        NULL_COLLECTOR.count("should_not_stick", 1)
        assert NULL_COLLECTOR.counters() == {}

    def test_enabled_collector_is_truthy(self):
        assert Collector()


class TestSpans:
    def test_span_records_path_and_duration(self):
        collector = Collector()
        with collector.span("work"):
            pass
        (record,) = collector.spans()
        assert isinstance(record, TraceSpan)
        assert record.name == "work"
        assert record.wall_start_s >= 0.0
        assert record.wall_duration_s >= 0.0
        assert record.end > record.start
        assert record.parent_id is None

    def test_nested_spans_record_parent_id(self):
        collector = Collector()
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        by_name = {record.name: record for record in collector.spans()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_span_ids_unique_across_roots(self):
        collector = Collector()
        for _ in range(3):
            with collector.span("root"):
                with collector.span("child"):
                    pass
                with collector.span("child"):
                    pass
        ids = [record.span_id for record in collector.spans()]
        assert len(ids) == len(set(ids)) == 9
        assert len({record.trace_id for record in collector.spans()}) == 1

    def test_record_spans_false_keeps_counters_only(self):
        collector = Collector(record_spans=False)
        with collector.span("s"):
            collector.count("x")
        assert collector.spans() == []
        assert collector.get("x") == 1

    def test_max_spans_bounds_storage(self):
        collector = Collector(max_spans=2)
        for _ in range(5):
            with collector.span("s"):
                pass
        assert len(collector.spans()) == 2
        assert collector.report()["spans_dropped"] == 3

    def test_negative_max_spans_rejected(self):
        with pytest.raises(ValueError):
            Collector(max_spans=-1)

    def test_default_max_spans(self):
        assert Collector().max_spans == DEFAULT_MAX_SPANS

    def test_span_closes_on_exception(self):
        collector = Collector()
        with pytest.raises(RuntimeError):
            with collector.span("failing"):
                raise RuntimeError("boom")
        (record,) = collector.spans()
        assert record.name == "failing"
        assert record.wall_duration_s >= 0.0
        # Nesting recovered: a new span is top-level again.
        with collector.span("after"):
            pass
        assert collector.spans()[-1].parent_id is None


class TestScopedCollector:
    def test_scope_prefixes_paths(self):
        collector = Collector()
        scoped = collector.scope("engine/fc1")
        scoped.count("reads", 3)
        assert collector.get("engine/fc1/reads") == 3
        assert scoped.get("reads") == 3

    def test_nested_scope_composes(self):
        collector = Collector()
        tile = collector.scope("engine").scope("tile[0]")
        tile.count("reads", 1)
        assert collector.get("engine/tile[0]/reads") == 1

    def test_scope_spans_land_in_base(self):
        collector = Collector()
        with collector.scope("pipeline").span("stage"):
            pass
        (record,) = collector.spans()
        assert record.name == "pipeline/stage"

    def test_scope_requires_prefix(self):
        with pytest.raises(ValueError):
            Collector().scope("")

    def test_scope_truthiness_follows_base(self):
        assert not Collector(enabled=False).scope("x")
        assert Collector().scope("x")

    def test_scope_is_a_collector(self):
        assert isinstance(Collector().scope("a"), Collector)

    def test_nested_scope_hooks_land_in_root_store(self):
        collector = Collector()
        scoped = collector.scope("a").scope("b")
        scoped.count("hits", 2)
        scoped.set("gauge", 7)
        scoped.observe("batch", 3)
        scoped.merge_counters({"merged": 4})
        scoped.merge_histograms({
            "sizes": {"bounds": [1.0, 2.0], "counts": [1, 0, 0],
                      "count": 1, "sum": 0.5},
        })
        with scoped.span("work"):
            pass
        assert collector.counters() == {
            "a/b/gauge": 7, "a/b/hits": 2, "a/b/merged": 4,
        }
        assert sorted(collector.histograms()) == ["a/b/batch", "a/b/sizes"]
        assert collector.histograms()["a/b/sizes"]["count"] == 1
        (record,) = collector.spans()
        assert record.name == "a/b/work"

    def test_scope_span_overflow_counts_at_root(self):
        collector = Collector(max_spans=1)
        scoped = collector.scope("engine")
        for _ in range(3):
            with scoped.span("matmul"):
                pass
        assert collector.get("telemetry/dropped_spans") == 2
        assert collector.report()["spans_dropped"] == 2
        assert scoped.get("telemetry/dropped_spans") == 0

    def test_scope_of_disabled_collector_records_nothing(self):
        collector = Collector(enabled=False)
        scoped = collector.scope("a")
        scoped.count("hits")
        scoped.set("gauge", 1)
        scoped.observe("batch", 3)
        scoped.merge_counters({"merged": 1})
        with scoped.span("work"):
            pass
        assert not scoped
        assert collector.counters() == {}
        assert collector.histograms() == {}
        assert collector.spans() == []

    def test_scope_reads_its_own_subtree(self):
        collector = Collector()
        collector.count("top", 1)
        collector.count("engine/fc1/reads", 3)
        collector.count("engine/fc1/tile[pos,0]/reads", 2)
        collector.count("engine/fc10/reads", 9)
        collector.observe("engine/fc1/batch", 4)
        scoped = collector.scope("engine/fc1")
        assert scoped.counters() == {"reads": 3, "tile[pos,0]/reads": 2}
        for path, value in scoped.counters().items():
            assert scoped.get(path) == value
        assert list(scoped.histograms()) == ["batch"]
        assert scoped.counter_tree() == {
            "reads": 3, "tile[pos,0]": {"reads": 2},
        }
        assert len(collector.counters()) == 4


class TestExport:
    def _collector(self):
        collector = Collector()
        collector.count("engine/fc1/reads", 8)
        with collector.span("matmul"):
            pass
        return collector

    def test_report_shape(self):
        document = self._collector().report()
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["counters"] == {"engine/fc1/reads": 8}
        assert document["counter_tree"]["engine"]["fc1"]["reads"] == 8
        assert len(document["spans"]) == 1
        json.dumps(document)

    def test_chrome_trace_events(self):
        trace = trace_chrome_document(self._collector().spans())
        assert trace["displayTimeUnit"] == "ms"
        kinds = [event["ph"] for event in trace["traceEvents"]]
        assert kinds[0] == "M"  # metadata first
        assert "X" in kinds
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["name"] == "matmul"
        assert complete[0]["dur"] >= 0

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        written = write_json_atomic(
            out, trace_chrome_document(self._collector().spans())
        )
        assert written == out
        loaded = json.loads(out.read_text())
        assert "traceEvents" in loaded

    def test_profile_report_valid(self):
        document = profile_report(
            self._collector(),
            command=["infer", "--json"],
            exit_code=0,
            wall_time_s=0.5,
            chrome_trace="trace.json",
        )
        validate_profile_report(document)
        assert document["kind"] == "profile"
        assert document["chrome_trace"] == "trace.json"

    def test_profile_report_extends_collector_report(self):
        collector = self._collector()
        document = profile_report(collector, ["x"], 0, 0.1)
        report = collector.report()
        assert {key: document[key] for key in report} == report

    def test_profile_validator_rejects_malformed_span(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        del document["spans"][0]["span_id"]
        with pytest.raises(ValueError, match="span_id"):
            validate_profile_report(document)
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        document["spans"][0]["wall_duration_s"] = -1.0
        with pytest.raises(
            ValueError, match="wall_duration_s: expected number >= 0"
        ):
            validate_profile_report(document)

    def test_profile_validator_rejects_missing_field(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        del document["counters"]
        with pytest.raises(ValueError, match="counters"):
            validate_profile_report(document)

    def test_profile_validator_rejects_wrong_schema_version(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        document["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_profile_report(document)

    def test_bench_document_valid(self):
        document = make_bench_document(
            bench="engine_throughput",
            workload="mlp",
            backend="vectorized",
            wall_time_s=1.25,
            counters={"mvm_calls": 10},
            extra={"batch": 32},
        )
        validate_bench_document(document)
        assert document["batch"] == 32

    def test_bench_validator_rejects_negative_wall_time(self):
        document = make_bench_document("b", "w", "loop", -1.0, {})
        with pytest.raises(ValueError, match="wall_time_s"):
            validate_bench_document(document)


class TestDeterminism:
    def test_counters_byte_identical_across_runs(self):
        """Same instrumented work -> same serialized counter map."""

        def run():
            collector = Collector()
            for index in range(4):
                collector.scope(f"tile[{index}]").count("reads", index * 3)
            collector.count("mvm_calls", 2)
            return json.dumps(collector.counters(), sort_keys=True)

        assert run() == run()
