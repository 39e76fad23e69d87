"""Work-conserving dispatch and execution-unit behaviour of the server.

A job is handed to a free worker at once; jobs coalesce only when they
queue behind busy workers.  Every test here orders events with
``threading.Event`` hand-offs or event-loop turns, never with timed
sleeps: a patched ``run_coalesced`` holds the only worker until
released.  Timeouts are only a safety net against a hang.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro.serve.server as server_module
from repro.serve import InferenceJob, TrainingJob
from repro.serve.server import (
    ServerConfig,
    running_server,
    validate_job_report,
)
from repro.telemetry import Collector

#: Safety net so a broken dispatcher fails the test instead of hanging.
HAND_OFF_TIMEOUT_S = 120.0


def call_on(server, coroutine):
    """Run a server coroutine from the test thread, bounded in time."""
    loop = server_module._loop_of(server)
    future = asyncio.run_coroutine_threadsafe(coroutine, loop)
    return future.result(HAND_OFF_TIMEOUT_S)


def _inference(tenant="alice", input_seed=None, seed=3):
    return InferenceJob(workload="mlp", seed=seed, count=8, batch=4,
                        input_seed=input_seed, tenant=tenant)


class _HeldWorker:
    """Patches ``run_coalesced`` so its first call blocks until
    :meth:`release`; later calls run straight through."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self._release = threading.Event()
        real = server_module.run_coalesced

        def held(simulator, jobs, collector):
            if not self.entered.is_set():
                self.entered.set()
                assert self._release.wait(HAND_OFF_TIMEOUT_S)
            return real(simulator, jobs, collector=collector)

        monkeypatch.setattr(server_module, "run_coalesced", held)

    def wait_entered(self):
        assert self.entered.wait(HAND_OFF_TIMEOUT_S)

    def release(self):
        self._release.set()


def _hold_then_queue(server, held, count):
    """Occupy the only worker, then queue ``count`` same-model jobs."""
    holder = call_on(server, server.submit(_inference(tenant="holder")))
    held.wait_entered()
    queued = [
        call_on(server, server.submit(_inference(input_seed=40 + i)))
        for i in range(count)
    ]
    return holder, queued


class TestWorkConservingDispatch:
    def test_idle_worker_takes_a_job_without_waiting(self):
        async def submit_and_yield(server):
            job_id = await server.submit(_inference())
            # A few loop turns, no clock: enough for the dispatcher to
            # run once, far too few for any timed linger to expire.
            for _ in range(3):
                await asyncio.sleep(0)
            return job_id, server._records[job_id].status

        with running_server(ServerConfig(workers=2)) as (server, _):
            job_id, status = call_on(server, submit_and_yield(server))
            report = call_on(server, server.wait(job_id))
        assert status != "pending"
        assert report["status"] == "done"

    def test_jobs_queued_behind_busy_worker_coalesce(self, monkeypatch):
        held = _HeldWorker(monkeypatch)
        collector = Collector()
        with running_server(
            ServerConfig(workers=1), collector=collector
        ) as (server, _):
            holder, queued = _hold_then_queue(server, held, 4)
            held.release()
            reports = [
                call_on(server, server.wait(job_id))
                for job_id in [holder, *queued]
            ]
        for report in reports:
            validate_job_report(report)
            assert report["status"] == "done"
        # The holder ran alone the moment it arrived; the four that
        # queued behind it ran as one coalesced group of four.
        assert reports[0]["coalesced"] is False
        assert all(report["coalesced"] for report in reports[1:])
        batch_size = collector.histograms()[
            "serve/coalesce/batch_size_jobs"
        ]
        assert batch_size["count"] == 2
        assert batch_size["sum"] == 1 + 4
        assert collector.get("serve/coalesced.batches") == 1
        assert collector.get("serve/coalesced.jobs") == 4

    def test_stop_while_worker_held_drains_every_job(self, monkeypatch):
        held = _HeldWorker(monkeypatch)
        with running_server(ServerConfig(workers=1)) as (server, _):
            loop = server_module._loop_of(server)
            holder, queued = _hold_then_queue(server, held, 3)
            stopping = asyncio.run_coroutine_threadsafe(
                server.stop(), loop
            )
            # The held worker keeps the dispatcher, hence stop(), from
            # finishing until it is released.
            assert not stopping.done()
            held.release()
            stopping.result(HAND_OFF_TIMEOUT_S)
            statuses = [
                server._records[job_id].status
                for job_id in [holder, *queued]
            ]
        assert statuses == ["done"] * 4


class TestGroupFailureIsolation:
    def test_failed_group_reports_errors_and_frees_the_entry(
        self, monkeypatch
    ):
        def broken(simulator, jobs, collector):
            raise RuntimeError("simulated array fault")

        collector = Collector()
        jobs = [_inference(input_seed=60 + i) for i in range(3)]
        with running_server(
            ServerConfig(workers=2), collector=collector
        ) as (server, _):
            monkeypatch.setattr(server_module, "run_coalesced", broken)
            reports = call_on(server, server.run_all(jobs))
            for report in reports:
                validate_job_report(report)
                assert report["status"] == "error"
                assert "simulated array fault" in report["error"]
            assert collector.get("serve/jobs.failed") == len(jobs)
            entry = server._cache.lease(jobs[0])
            assert entry.lock.acquire(blocking=False)
            entry.lock.release()
            monkeypatch.undo()
            (after,) = call_on(
                server, server.run_all([_inference(input_seed=70)])
            )
        assert after["status"] == "done"
        assert collector.get("serve/jobs.failed") == len(jobs)


class TestUnitOfOne:
    def test_lone_inference_job_runs_as_a_traced_unit(self):
        collector = Collector()
        jobs = [
            _inference(tenant="alice"),
            _inference(tenant="bob", input_seed=9),
            _inference(tenant="alice", seed=4),
            TrainingJob(workload="mlp", seed=6, epochs=1, batch=8,
                        train_count=32, test_count=16, tenant="bob"),
        ]
        with running_server(
            ServerConfig(workers=2), collector=collector
        ) as (server, _):
            # One job at a time: every one is a unit of one.
            reports = [
                call_on(server, server.run_all([job]))[0] for job in jobs
            ]
            traces = [
                server.trace_report(report["job_id"]) for report in reports
            ]
        for report in reports:
            assert report["status"] == "done"
            assert report["coalesced"] is False
        for trace in traces[:3]:
            names = {span["name"] for span in trace["spans"]}
            assert {"cache_lease", "engine_evaluate"} <= names
        assert "cache_lease" not in {
            span["name"] for span in traces[3]["spans"]
        }
        evaluate = collector.histograms()[
            "serve/latency/engine_evaluate_seconds"
        ]
        assert evaluate["count"] == 3
        assert collector.get("serve/coalesced.jobs") == 0
        assert collector.get("serve/coalesced.batches") == 0


class TestTenantEnergySeries:
    def test_warm_lone_job_still_opens_its_tenant_series(self):
        collector = Collector()
        with running_server(
            ServerConfig(workers=2), collector=collector
        ) as (server, _):
            # alice's cold run programs the arrays; bob's warm run of
            # the same model alone prices no events at all.
            call_on(server, server.run_all([_inference(tenant="alice")]))
            call_on(
                server,
                server.run_all([_inference(tenant="bob", input_seed=9)]),
            )
        counters = collector.counters()
        assert counters["serve/tenant[alice]/energy/total_joules"] > 0.0
        assert counters["serve/tenant[bob]/energy/total_joules"] == 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_run_all_plans_the_whole_list_at_once(workers):
    collector = Collector()
    jobs = [_inference(input_seed=80 + i) for i in range(5)]
    with running_server(
        ServerConfig(workers=workers), collector=collector
    ) as (server, _):
        reports = call_on(server, server.run_all(jobs))
    assert [report["status"] for report in reports] == ["done"] * 5
    assert all(report["coalesced"] for report in reports)
    assert collector.get("serve/coalesced.batches") == 1
    assert collector.get("serve/coalesced.jobs") == 5
