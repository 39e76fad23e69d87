"""Tests for :mod:`repro.telemetry.analysis` — derived metrics.

The analysis layer is pure: it reads a counter map and derives stage
utilization, bubbles, and ADC-per-MAC without re-running anything, so
every check here cross-validates the derived numbers against the
schedule simulator / engine that produced the counters.
"""

import numpy as np
import pytest

from repro.core.schedule import (
    simulate_gan_iteration,
    simulate_training_pipeline,
)
from repro.telemetry import (
    Collector,
    analyze_counters,
    counters_from,
    engine_prefixes,
    gan_prefixes,
    render_analysis_report,
    resource_utilization,
    schedule_prefixes,
    stage_utilization,
    validate_analysis_report,
)
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

LAYERS, N_INPUTS, BATCH = 3, 8, 4


@pytest.fixture()
def pipeline_collector():
    collector = Collector(record_spans=False)
    result = simulate_training_pipeline(
        LAYERS, N_INPUTS, BATCH, collector=collector.scope("pipeline")
    )
    return collector, result


class TestStageUtilization:
    def test_prefix_discovery(self, pipeline_collector):
        collector, _ = pipeline_collector
        assert schedule_prefixes(collector.counters()) == ["pipeline"]

    def test_consistent_with_simulator(self, pipeline_collector):
        """busy + bubble == makespan per stage; totals match the
        simulator's own event table."""
        collector, result = pipeline_collector
        report = stage_utilization(collector.counters(), "pipeline")
        assert report["makespan_cycles"] == result.makespan
        assert report["stage_count"] == 2 * LAYERS + 1
        busy_from_events = {}
        compute_events = 0
        for event in result.events:
            if event.stage < 0:
                continue
            compute_events += 1
            busy_from_events[event.stage] = (
                busy_from_events.get(event.stage, 0) + 1
            )
        for row in report["stages"]:
            assert (
                row["busy_cycles"] + row["bubble_cycles"]
                == result.makespan
            )
            assert row["busy_cycles"] == busy_from_events[row["stage"]]
            assert row["utilization"] == pytest.approx(
                row["busy_cycles"] / result.makespan
            )
        assert report["total_busy_cycles"] == compute_events
        assert report["parallelism"] == pytest.approx(
            compute_events / result.makespan
        )
        assert report["mean_utilization"] == pytest.approx(
            report["parallelism"] / report["stage_count"]
        )

    def test_missing_prefix_raises(self, pipeline_collector):
        collector, _ = pipeline_collector
        with pytest.raises(ValueError, match="no stage"):
            stage_utilization(collector.counters(), "nonexistent")


class TestResourceUtilization:
    def test_gan_schedule_counters(self):
        collector = Collector(record_spans=False)
        result = simulate_gan_iteration(
            3, 3, 4, scheme="sp_cs", collector=collector.scope("gan")
        )
        assert gan_prefixes(collector.counters()) == ["gan"]
        report = resource_utilization(collector.counters(), "gan")
        assert report["makespan_cycles"] == result.makespan
        names = {row["resource"] for row in report["resources"]}
        assert "G" in names
        total = sum(row["busy_cycles"] for row in report["resources"])
        assert report["total_busy_cycles"] == total
        assert report["parallelism"] == pytest.approx(
            total / result.makespan
        )
        for row in report["resources"]:
            assert row["mean_busy_stages"] == pytest.approx(
                row["busy_cycles"] / result.makespan
            )


class TestEngineMetrics:
    @pytest.fixture()
    def engine_collector(self):
        collector = Collector(record_spans=False)
        engine = CrossbarEngine(
            CrossbarEngineConfig(fast_ideal=False),
            rng=1,
            collector=collector.scope("engine/dense"),
        )
        engine.prepare(np.random.default_rng(0).normal(size=(64, 32)))
        engine.matmul(np.random.default_rng(1).normal(size=(4, 64)))
        return collector

    def test_adc_per_mac_and_tiles(self, engine_collector):
        counters = engine_collector.counters()
        assert engine_prefixes(counters) == ["engine"]
        report = analyze_counters(engine_collector)
        (group,) = report["engines"]
        (layer,) = group["layers"]
        assert layer["layer"] == "dense"
        assert layer["macs"] == 4 * 64 * 32
        assert layer["adc_per_mac"] == pytest.approx(
            layer["adc_conversions"] / layer["macs"]
        )
        # The per-tile census sums back to the layer totals and the
        # balanced mapping loads every tile identically.
        assert sum(t["reads"] for t in layer["tiles"]) == layer[
            "array_reads"
        ]
        assert sum(t["adc_conversions"] for t in layer["tiles"]) == layer[
            "adc_conversions"
        ]
        assert layer["tile_read_balance"] == pytest.approx(1.0)
        assert sum(t["read_share"] for t in layer["tiles"]) == (
            pytest.approx(1.0)
        )
        assert report["totals"]["adc_per_mac"] == layer["adc_per_mac"]


class TestAnalyzeCounters:
    def test_document_validates(self, pipeline_collector):
        collector, _ = pipeline_collector
        report = analyze_counters(collector, source_name="unit test")
        validate_analysis_report(report)
        assert report["source"] == "unit test"
        assert report["kind"] == "analysis"

    def test_counters_from_accepts_documents(self, pipeline_collector):
        collector, _ = pipeline_collector
        flat = collector.counters()
        assert counters_from(collector) == flat
        assert counters_from(flat) == flat
        assert counters_from({"counters": flat, "kind": "profile"}) == flat
        with pytest.raises(TypeError):
            counters_from(42)

    def test_render_smoke(self, pipeline_collector):
        collector, _ = pipeline_collector
        report = analyze_counters(collector)
        text = render_analysis_report(report)
        assert "pipeline pipeline" in text
        assert "utilization" in text

    def test_render_empty(self):
        report = analyze_counters({"unrelated/counter": 3})
        validate_analysis_report(report)
        assert "no pipeline" in render_analysis_report(report)
