"""End-to-end job-server contract over real TCP.

One server, several tenants, mixed job kinds: every report validates,
same-spec reruns reproduce every result payload byte-for-byte, the
programmed-state cache is exercised, and per-tenant telemetry scopes
appear under ``serve/tenant[<id>]/``.
"""

from __future__ import annotations

import socket

import pytest

from repro.serve import server as server_module

from repro.serve import InferenceJob, ReliabilityJob, TrainingJob
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    ServerConfig,
    call_on,
    job_report,
    running_server,
    validate_job_report,
)
from repro.telemetry import SCHEMA_VERSION, Collector


def _mix():
    return [
        InferenceJob(workload="mlp", seed=3, count=8, batch=4,
                     tenant="alice"),
        InferenceJob(workload="mlp", seed=3, count=6, batch=4,
                     input_seed=9, tenant="bob"),
        InferenceJob(workload="mlp", seed=4, count=8, batch=8,
                     tenant="alice"),
        TrainingJob(workload="mlp", seed=6, epochs=1, batch=8,
                    train_count=32, test_count=16, tenant="bob"),
    ]


def _read_all(sock: socket.socket) -> bytes:
    response = b""
    while chunk := sock.recv(4096):
        response += chunk
    return response


@pytest.fixture(scope="module")
def served():
    collector = Collector()
    config = ServerConfig(workers=2)
    with running_server(config, collector=collector) as (server, address):
        yield server, address, collector


class TestHttpSurface:
    def test_health_and_stats(self, served):
        _, (host, port), _ = served
        client = ServeClient(host, port)
        assert client.health()
        stats = client.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert set(stats) >= {"jobs", "cache", "counters"}

    def test_unknown_job_404(self, served):
        _, (host, port), _ = served
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as excinfo:
            client.report("job-99999", wait=False)
        assert excinfo.value.status == 404

    def test_bad_spec_400(self, served):
        _, (host, port), _ = served
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "inference", "workload": "nope"})
        assert excinfo.value.status == 400

    def test_non_integer_field_400(self, served):
        _, (host, port), _ = served
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "inference", "seed": 1.5})
        assert excinfo.value.status == 400
        assert "seed" in str(excinfo.value)

    def test_non_finite_rates_400(self, served):
        # The client's json.dumps writes NaN and Infinity tokens, which
        # the server's json.loads parses back into floats.
        _, (host, port), _ = served
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as excinfo:
            client.submit({
                "kind": "reliability",
                "axis": "drift",
                "rates": [float("nan"), float("inf")],
            })
        assert excinfo.value.status == 400
        assert "rates must be finite" in str(excinfo.value)

    def test_out_of_range_rates_400(self, served):
        _, (host, port), _ = served
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as excinfo:
            client.submit(
                {"kind": "reliability", "axis": "stuck", "rates": [5.0]}
            )
        assert excinfo.value.status == 400
        assert "stuck_off_rate" in str(excinfo.value)

    def test_oversized_body_413(self, served):
        # The announced length alone is refused; no body is sent.
        _, (host, port), _ = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
            response = _read_all(sock)
        assert response.startswith(b"HTTP/1.1 413 Payload Too Large")

    def test_too_many_header_lines_431(self, served):
        # The server stops at the first line past the cap, so the
        # request is sent without its closing blank line.
        _, (host, port), _ = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"GET /v1/healthz HTTP/1.1\r\n"
                + b"X-Filler: 1\r\n" * (MAX_HEADER_LINES + 1)
            )
            response = _read_all(sock)
        assert response.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large"
        )

    def test_header_lines_up_to_the_cap_accepted(self, served):
        _, (host, port), _ = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"GET /v1/healthz HTTP/1.1\r\n"
                + b"X-Filler: 1\r\n" * MAX_HEADER_LINES
                + b"\r\n"
            )
            response = _read_all(sock)
        assert response.startswith(b"HTTP/1.1 200 OK")

    def test_stalled_request_408(self, served, monkeypatch):
        # Half a request head, then silence: the read deadline answers.
        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)
        _, (host, port), _ = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
            response = _read_all(sock)
        assert response.startswith(b"HTTP/1.1 408 Request Timeout")

    def test_wait_hold_outlasts_the_read_deadline(self, served, monkeypatch):
        # ``?wait=1`` blocks after the request is read, so a job slower
        # than the deadline still answers with its report.
        import time

        import repro.reliability

        def slow_campaign(**kwargs):
            time.sleep(0.6)
            raise ValueError("slow campaign")

        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)
        monkeypatch.setattr(repro.reliability, "run_campaign", slow_campaign)
        _, (host, port), _ = served
        client = ServeClient(host, port)
        report = client.run(ReliabilityJob(workload="mlp", seed=11))
        assert report["status"] == "error"

    def test_unknown_route_404(self, served):
        _, (host, port), _ = served
        status, _ = ServeClient(host, port).request("GET", "/v2/zap")
        assert status == 404


class TestEndToEnd:
    def test_mixed_jobs_validate_and_rerun_deterministically(self, served):
        server, (host, port), collector = served
        client = ServeClient(host, port)
        first = client.run_many(_mix())
        second = client.run_many(_mix())
        for report in first + second:
            validate_job_report(report)
            assert report["status"] == "done"
        assert [r["result"] for r in first] == [
            r["result"] for r in second
        ]
        # Distinct input streams -> distinct logits digests.
        assert (
            first[0]["result"]["outputs_sha256"]
            != first[1]["result"]["outputs_sha256"]
        )
        # Second pass leased every inference model from the warm cache.
        assert collector.get("serve/cache/hits") > 0

    def test_per_tenant_telemetry_scopes(self, served):
        _, _, collector = served
        counters = collector.counters()
        for tenant in ("alice", "bob"):
            assert any(
                path.startswith(f"serve/tenant[{tenant}]/")
                for path in counters
            ), f"no telemetry scope for tenant {tenant}"
        assert counters.get("serve/tenant[bob]/jobs[training]", 0) > 0

    def test_drain_mode_matches_live_results(self, served):
        server, (host, port), _ = served
        live = ServeClient(host, port).run_many(_mix())
        drained = call_on(server, server.run_all(_mix()))
        assert [r["result"] for r in live] == [
            r["result"] for r in drained
        ]

    def test_error_jobs_report_error(self, served, monkeypatch):
        server, _, _ = served
        # A valid spec whose campaign fails in the worker: the failure
        # must surface as an error report, not a hang or a server crash.
        # (Spec validation already refuses an unknown axis or rate.)
        import repro.reliability

        def failing_campaign(**kwargs):
            raise ValueError("campaign failed in the worker")

        monkeypatch.setattr(repro.reliability, "run_campaign", failing_campaign)
        report = call_on(
            server,
            server.run_all([ReliabilityJob(workload="mlp", seed=0)]),
        )[0]
        validate_job_report(report)
        assert report["status"] == "error"
        assert report["error"]


class TestJobReportValidation:
    def test_valid_report_roundtrip(self):
        job = InferenceJob(workload="mlp", seed=1)
        report = job_report(
            job,
            "job-00001",
            "done",
            result={
                "accuracy": 0.5,
                "count": 64,
                "outputs_sha256": "ab" * 32,
            },
            coalesced=True,
        )
        assert validate_job_report(report) is report

    def test_rejects_missing_result(self):
        report = job_report(InferenceJob(workload="mlp"), "j", "done")
        with pytest.raises(ValueError, match="result"):
            validate_job_report(report)

    def test_rejects_bad_version(self):
        report = job_report(InferenceJob(workload="mlp"), "j", "pending")
        report["schema_version"] = 0
        with pytest.raises(ValueError, match="schema_version"):
            validate_job_report(report)

    def test_rejects_errorless_error(self):
        report = job_report(InferenceJob(workload="mlp"), "j", "error")
        assert "error" not in report  # no message passed
        with pytest.raises(ValueError, match="error"):
            validate_job_report(report)

    def test_rejects_unknown_status(self):
        report = job_report(InferenceJob(workload="mlp"), "j", "done")
        report["status"] = "lost"
        with pytest.raises(ValueError, match="status"):
            validate_job_report(report)
