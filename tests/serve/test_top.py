"""Golden-frame tests for the ``repro top`` renderer.

``tenant_rows``/``render_top`` are pure functions of a ``/v1/stats``
document, so a fixture stats dict pins the exact frame text — column
layout, the energy(J) column, throughput deltas against a previous
snapshot, and the empty-server placeholder.
"""

from repro.serve.client import render_top, tenant_rows


def _stats():
    return {
        "queue_depth": 2,
        "cache": {"hits": 3, "misses": 1, "entries": 2},
        "counters": {
            "serve/tenant[alice]/submitted": 4,
            "serve/tenant[alice]/jobs[inference]": 3,
            "serve/tenant[alice]/jobs[training]": 1,
            "serve/tenant[alice]/energy/total_joules": 2.048e-07,
            "serve/tenant[bob]/submitted": 2,
            "serve/tenant[bob]/jobs[inference]": 2,
        },
        "histograms": {
            "serve/tenant[alice]/latency/e2e_seconds": {
                "bounds": [0.1, 1.0],
                "counts": [4, 0, 0],
                "count": 4,
            }
        },
    }


class TestTopRows:
    def test_rows_aggregate_jobs_and_energy(self):
        rows = tenant_rows(_stats(), previous=None, interval=0.0)
        assert [row["tenant"] for row in rows] == ["alice", "bob"]
        alice, bob = rows
        assert alice["submitted"] == 4
        assert alice["done"] == 4
        assert alice["energy_joules"] == 2.048e-07
        assert alice["p50"] == 0.05
        assert bob["done"] == 2
        assert bob["energy_joules"] == 0.0
        assert bob["p50"] == 0.0

    def test_throughput_from_previous_snapshot(self):
        previous = {
            "counters": {
                "serve/tenant[alice]/jobs[inference]": 1,
            }
        }
        rows = tenant_rows(_stats(), previous=previous, interval=2.0)
        alice = rows[0]
        assert alice["throughput_jobs_s"] == (4 - 1) / 2.0
        assert rows[1]["throughput_jobs_s"] == 2 / 2.0


class TestRenderTop:
    def test_golden_frame(self):
        stats = _stats()
        frame = render_top(stats, tenant_rows(stats, None, 0.0))
        assert frame == "\n".join(
            [
                "queue depth 2; cache 3/4 hits (75%), 2 resident",
                "tenant        subm  done  jobs/s    p50(s)"
                "    p95(s)    p99(s)  energy(J)",
                "alice            4     4    0.00    0.0500"
                "    0.0950    0.0990  2.048e-07",
                "bob              2     2    0.00    0.0000"
                "    0.0000    0.0000  0.000e+00",
            ]
        )

    def test_empty_server_frame(self):
        stats = {
            "queue_depth": 0,
            "cache": {},
            "counters": {},
            "histograms": {},
        }
        frame = render_top(stats, tenant_rows(stats, None, 0.0))
        assert frame == "\n".join(
            [
                "queue depth 0; cache 0/0 hits (0%), 0 resident",
                "tenant        subm  done  jobs/s    p50(s)"
                "    p95(s)    p99(s)  energy(J)",
                "(no tenant activity yet)",
            ]
        )

    def test_frame_fits_terminal_width(self):
        stats = _stats()
        frame = render_top(stats, tenant_rows(stats, None, 0.0))
        assert all(len(line) <= 79 for line in frame.splitlines())
