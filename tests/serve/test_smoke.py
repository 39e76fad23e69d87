"""The ``repro serve --smoke`` self-check, run in-process.

The smoke starts a live server, submits a mixed-kind, multi-tenant
job list three times over HTTP and gates determinism, cache reuse,
the metrics/energy/trace surfaces and the event log.  Every gate is
asserted on its own so a regression names the surface that broke.
"""

from __future__ import annotations

from repro.serve.client import tenant_ids
from repro.serve.server import ServerConfig
from repro.serve.smoke import SMOKE_RUNS, run_smoke, smoke_jobs

#: The boolean gates ``document["ok"]`` is the conjunction of (with
#: ``cache_hits > 0`` and ``failed == 0``).
GATES = (
    "deterministic",
    "metrics_ok",
    "metrics_deterministic",
    "energy_ok",
    "energy_deterministic",
    "trace_ok",
)


def test_smoke_passes_every_gate(tmp_path):
    jobs = 8
    config = ServerConfig(event_log=tmp_path / "events.jsonl")
    document, text = run_smoke(config, jobs, seed=0)
    for gate in GATES:
        assert document[gate] is True, gate
    assert document["failed"] == 0
    assert document["cache_hits"] > 0
    assert document["ok"] is True
    assert document["jobs"] == jobs
    assert document["runs"] == SMOKE_RUNS == 3
    # The first two passes land exactly one e2e observation per job.
    assert document["latency_observations"] == 2 * jobs
    assert document["energy_joules"] > 0.0
    # submitted / dispatched / done per job per pass.
    assert document["events"] == 3 * jobs * SMOKE_RUNS
    assert text.startswith(f"serve smoke: {jobs} jobs x 3 runs on ")
    assert text.endswith("-> OK")


def test_smoke_jobs_mix_kinds_and_tenants():
    jobs = smoke_jobs(8, seed=0)
    assert [job.kind for job in jobs].count("training") == 1
    assert [job.kind for job in jobs].count("reliability") == 1
    assert {job.tenant for job in jobs} == {
        "tenant0", "tenant1", "tenant2"
    }
    assert smoke_jobs(8, seed=0) == jobs


def test_tenant_ids_parse_scoped_paths():
    paths = [
        "serve/tenant[bob]/submitted",
        "serve/tenant[alice]/jobs[inference]",
        "serve/tenant[alice]/energy/total_joules",
        "serve/cache/hits",
        "serve/tenant[broken",
    ]
    assert tenant_ids(paths) == ["alice", "bob"]
    assert tenant_ids([]) == []
