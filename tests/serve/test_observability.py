"""Observability surface of the job server: metrics, traces, events.

One served job mix, then every exposition surface is checked against
it: ``GET /v1/metrics`` renders parseable Prometheus text whose
deterministic samples match the job counts, ``GET /v1/traces/<id>``
answers one connected per-job trace, ``/v1/stats`` carries the
histogram and queue-depth extensions, and ``--event-log`` writes a
schema-versioned JSONL lifecycle for every job.
"""

from __future__ import annotations

import pytest

from repro.serve import InferenceJob, TrainingJob
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import (
    ServerConfig,
    running_server,
    validate_job_report,
    validate_stats_report,
)
from repro.telemetry import (
    Collector,
    parse_prometheus,
    read_event_log,
    sample_value,
    trace_id_for,
    validate_event_record,
    validate_trace_document,
)


def _mix():
    return [
        InferenceJob(workload="mlp", seed=3, count=8, batch=4,
                     tenant="alice"),
        InferenceJob(workload="mlp", seed=3, count=8, batch=4,
                     input_seed=9, tenant="bob"),
        TrainingJob(workload="mlp", seed=6, epochs=1, batch=8,
                    train_count=32, test_count=16, tenant="alice"),
    ]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    event_log = tmp_path_factory.mktemp("events") / "events.jsonl"
    collector = Collector()
    config = ServerConfig(workers=2, event_log=event_log)
    with running_server(config, collector=collector) as (server, address):
        client = ServeClient(*address)
        reports = client.run_many(_mix())
        yield server, client, reports, event_log


class TestMetricsEndpoint:
    def test_text_parses_and_matches_job_counts(self, served):
        _, client, reports, _ = served
        samples = parse_prometheus(client.metrics_text())
        jobs = float(len(reports))
        assert sample_value(samples, "repro_serve_jobs_done") == jobs
        assert sample_value(
            samples, "repro_serve_latency_queue_wait_seconds_count"
        ) == jobs
        assert sample_value(
            samples, "repro_serve_latency_e2e_seconds_count"
        ) == jobs

    def test_per_tenant_labels_exposed(self, served):
        _, client, _, _ = served
        samples = client.metrics()
        alice = sample_value(
            samples,
            "repro_serve_tenant_latency_e2e_seconds_count",
            {"tenant": "alice"},
        )
        bob = sample_value(
            samples,
            "repro_serve_tenant_latency_e2e_seconds_count",
            {"tenant": "bob"},
        )
        assert alice == 2.0
        assert bob == 1.0

    def test_latency_sums_are_nonzero(self, served):
        _, client, _, _ = served
        samples = client.metrics()
        assert sample_value(
            samples, "repro_serve_latency_e2e_seconds_sum"
        ) > 0.0

    def test_content_type_is_prometheus_text(self, served):
        _, client, _, _ = served
        status, body = client.request_text("GET", "/v1/metrics")
        assert status == 200
        assert body.startswith("# TYPE")


class TestTracesEndpoint:
    def test_every_job_has_a_connected_trace(self, served):
        _, client, reports, _ = served
        for report in reports:
            document = client.trace(report["job_id"])
            validate_trace_document(document)
            assert document["trace_id"] == trace_id_for(report["job_id"])
            names = [span["name"] for span in document["spans"]]
            assert names[0] == report["job_id"]
            assert "queue" in names
            assert "execute" in names

    def test_leader_traces_reach_cache_and_engine(self, served):
        # The execution unit's spans (cache lease, engine evaluate)
        # hang off the *leader* of a coalesced group; followers share
        # the evaluation, so their traces stop at the execute span.
        _, client, reports, _ = served
        with_unit = []
        for report in reports:
            document = client.trace(report["job_id"])
            names = {span["name"] for span in document["spans"]}
            if "cache_lease" in names:
                assert "engine_evaluate" in names
                assert any(
                    proc.startswith("unit[")
                    for proc in document["procs"]
                )
                assert "server" in document["procs"]
                with_unit.append(report["job_id"])
        assert with_unit  # at least every group leader

    def test_unknown_trace_404(self, served):
        _, client, _, _ = served
        with pytest.raises(ServeError) as excinfo:
            client.trace("job-99999")
        assert excinfo.value.status == 404

    def test_reports_carry_their_trace_id(self, served):
        _, _, reports, _ = served
        for report in reports:
            validate_job_report(report)
            assert report["trace_id"] == trace_id_for(report["job_id"])


class TestStatsExtensions:
    def test_stats_validate_with_histograms_and_queue_depth(self, served):
        _, client, _, _ = served
        stats = client.stats()
        validate_stats_report(stats)
        assert stats["queue_depth"] == 0
        histograms = stats["histograms"]
        assert "serve/latency/e2e_seconds" in histograms
        view = histograms["serve/latency/e2e_seconds"]
        assert view["count"] == 3
        assert len(view["counts"]) == len(view["bounds"]) + 1

    def test_stats_validator_rejects_missing_queue_depth(self, served):
        _, client, _, _ = served
        stats = dict(client.stats())
        del stats["queue_depth"]
        with pytest.raises(ValueError):
            validate_stats_report(stats)


class TestEventLog:
    def test_lifecycle_events_for_every_job(self, served):
        # The writer flushes per line, so the "done" events are on
        # disk by the time run_many returned the reports.
        _, _, reports, event_log = served
        records = read_event_log(event_log)
        for record in records:
            validate_event_record(record)
        by_job = {}
        for record in records:
            by_job.setdefault(record["job_id"], []).append(
                record["event"]
            )
        for report in reports:
            assert by_job[report["job_id"]] == [
                "submitted", "dispatched", "done",
            ]

    def test_sequence_is_strictly_increasing(self, served):
        _, _, _, event_log = served
        seqs = [record["seq"] for record in read_event_log(event_log)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_events_carry_trace_ids(self, served):
        _, _, reports, event_log = served
        records = read_event_log(event_log)
        for record in records:
            assert record["trace_id"] == trace_id_for(record["job_id"])

    def test_line_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected dict, got int"):
            read_event_log(path)
