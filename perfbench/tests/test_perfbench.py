"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import common
import infer_noisy
import loadgen
import serve_open
import sweep_campaign
from tracer import Span, Tracer, layer_summary, self_times

PHASES = [("warmup", 50.0, 5), ("steady", 20.0, 30), ("peak", 40.0, 30)]


# -- traffic ---------------------------------------------------------------

def test_schedule_is_a_pure_function_of_the_seed():
    first = loadgen.schedule(7, PHASES)
    again = loadgen.schedule(7, PHASES)
    assert first == again
    assert loadgen.digest(first) == loadgen.digest(again)
    assert loadgen.digest(loadgen.schedule(8, PHASES)) != loadgen.digest(
        first
    )


def test_schedule_shape():
    arrivals = loadgen.schedule(3, PHASES)
    assert [a.phase for a in arrivals] == (
        ["warmup"] * 5 + ["steady"] * 30 + ["peak"] * 30
    )
    dues = [a.due for a in arrivals]
    assert dues == sorted(dues)
    models = {(a.job["workload"], a.job["seed"]) for a in arrivals}
    assert models <= set(loadgen.models(3))
    assert {a.job["tenant"] for a in arrivals} <= set(loadgen.TENANTS)


class _CountingHandler(BaseHTTPRequestHandler):
    """Fake job server that records how many requests overlap.

    A request counts from its arrival until just before its reply, so
    a client that sends one request per connection and waits for the
    reply can never be seen on more requests than it has connections.
    """

    lock = threading.Lock()
    open_now = 0
    most = 0

    def _answer(self, status, document):
        with self.lock:
            type(self).open_now += 1
            type(self).most = max(type(self).most, type(self).open_now)
        body = json.dumps(document(self)).encode()
        with self.lock:
            type(self).open_now -= 1
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        job = json.loads(self.rfile.read(length))
        self._answer(202, lambda _: {"job_id": f"job-{job['input_seed']}"})

    def do_GET(self):
        self._answer(200, lambda handler: {"status": "done",
                                           "path": handler.path})

    def log_message(self, *args):
        pass


def test_client_sends_every_job_on_at_most_two_connections():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        arrivals = loadgen.schedule(1, [("steady", 400.0, 60)])
        sent = loadgen.OpenLoopClient(*server.server_address).run(arrivals)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(r.error is None and r.report is not None for r in sent)
    assert all(r.latency is not None and r.latency >= 0 for r in sent)
    assert 1 <= _CountingHandler.most <= 2


# -- tracing ---------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "child", 1.0, 4.0, 0, 1),
        Span(2, "child", 3.0, 6.0, 0, 1),  # overlaps the first child
        Span(3, "grandchild", 1.5, 2.0, 1, 1),
        Span(4, "child", 9.0, 12.0, 0, 1),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(0.5)
    summary = layer_summary(spans)
    assert summary["child"].calls == 3
    assert summary["child"].total_s == pytest.approx(9.0)


def test_tracer_wraps_and_restores():
    class Thing:
        def work(self, x):
            return x + 1

        @classmethod
        def build(cls):
            return cls()

    tracer = Tracer()
    tracer.wrap(Thing, "work", "thing.work")
    tracer.wrap(Thing, "build", "thing.build")
    assert Thing.build().work(1) == 2
    tracer.restore()
    Thing.build().work(1)
    names = [span.name for span in tracer.spans()]
    assert names == ["thing.build", "thing.work"]


# -- metric names ------------------------------------------------------------

def test_every_metric_name_is_well_formed():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert common.METRIC_NAME.match(name), name
    common.check_metric_names(dict.fromkeys(names))
    with pytest.raises(common.BenchmarkError):
        common.check_metric_names({"bad name": 1})


# -- correctness checks catch corrupted outputs ------------------------------

def test_infer_noisy_check_rejects_corrupted_counts():
    seeds = infer_noisy._seeds(0)
    sim = infer_noisy._deploy(seeds["model"], "vectorized")
    sim.run(infer_noisy._job(seeds["model"], seeds["inputs"]))
    before = sim.counters_snapshot()
    sim.run(infer_noisy._job(seeds["model"], seeds["inputs"] + 1))
    delta = infer_noisy._delta(before, sim.counters_snapshot())
    assert infer_noisy.check_job(delta) == []
    delta["engine/mnist_cnn.c1/array_reads"] += 1
    assert infer_noisy.check_job(delta)


def test_infer_noisy_check_rejects_corrupted_outputs():
    seeds = infer_noisy._seeds(0)
    job = infer_noisy._job(seeds["model"], seeds["inputs"])
    vectorized = infer_noisy._deploy(seeds["model"], "vectorized").run(job)
    corrupted = vectorized.outputs.copy()
    corrupted[0, 0] += 1e-9
    assert not infer_noisy.check_backends(
        seeds["model"], job, vectorized.outputs
    )
    assert infer_noisy.check_backends(seeds["model"], job, corrupted)


def _served(job):
    """A report as the server would send it for ``job``."""
    from repro.serve.jobs import job_from_dict
    from repro.serve.server import job_report

    report = job_report(
        job_from_dict(job),
        "job-00001",
        "done",
        result={"accuracy": 0.5, "count": job["count"],
                "outputs_sha256": serve_open.Oracle().digest(job)},
    )
    return loadgen.Sent(loadgen.Arrival(0.0, "peak", job), report=report,
                        latency=0.01)


def test_serve_open_check_rejects_corrupted_outputs():
    job = loadgen.job_document("mlp", 11, "tenant-a", 2)
    good = _served(job)
    assert serve_open.check([good], serve_open.Oracle()) == []
    bad = _served(job)
    bad.report["result"]["outputs_sha256"] = "0" * 64
    assert serve_open.check([bad], serve_open.Oracle())
    lost = loadgen.Sent(loadgen.Arrival(0.0, "peak", job), error="timeout")
    assert serve_open.check([lost], serve_open.Oracle())


def test_sweep_campaign_check_rejects_corrupted_replay():
    from repro.reliability.campaign import run_campaign

    report = run_campaign("mlp", axis="stuck", rates=(0.0, 0.05), count=8,
                          batch=8, train_epochs=0)
    replay = json.loads(json.dumps(report))
    assert sweep_campaign.check(report, replay) == []
    replay["scenarios"][1]["accuracy"] += 0.125
    assert sweep_campaign.check(report, replay)
    broken = dict(report, schema_version=-1)
    assert sweep_campaign.check(broken, broken)
