"""Cross-process trace stitching: one trace, any worker count.

The sweep executor forks one carrier per cell upfront (in input
order), each worker records its cell's spans on a throwaway local
log, and the parent absorbs them in input order — so the stitched
trace is a single connected tree whose JSON is byte-identical across
worker counts, shard orders, and cache states.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing

import pytest

from repro.sweep import SweepCell, run_sweep
from repro.sweep.cache import SweepCache
from repro.telemetry import (
    TraceContext,
    TraceLog,
    trace_chrome_document,
    trace_document,
    validate_trace_document,
)
from repro.xbar.engine import CrossbarEngineConfig, engine_config_to_dict

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _cells(count=4):
    # campaign_scenario resolves by dotted path, so worker processes
    # can import the cell function without any registration step.
    return [
        SweepCell(
            "campaign_scenario",
            {
                "name": f"stuck@{rate}",
                "axis": "stuck",
                "rate": rate,
                "workload": "mlp",
                "seed": 5,
                "count": 8,
                "batch": 8,
                "backend": "vectorized",
                "engine_config": engine_config_to_dict(
                    CrossbarEngineConfig()
                ),
                "train_epochs": 1,
                "train_count": 64,
                "include_tiles": False,
            },
        )
        for rate in [round(0.01 * step, 2) for step in range(count)]
    ]


def _traced_run(cells, **kwargs):
    log = TraceLog(proc="driver")
    root = TraceContext.root("sweep", log)
    run = run_sweep(cells, trace=root, **kwargs)
    root.finish({"cells": len(cells)})
    return run, log, root.trace_id


def _trace_bytes(log, trace_id):
    document = trace_document(trace_id, log.spans_for(trace_id))
    return json.dumps(document, sort_keys=True).encode()


class TestSingleProcessStitching:
    def test_trace_is_one_connected_tree(self):
        cells = _cells(2)
        _, log, trace_id = _traced_run(cells)
        document = trace_document(trace_id, log.spans_for(trace_id))
        validate_trace_document(document)
        # Root + per cell: the forked cell span and its evaluate child.
        assert document["span_count"] == 1 + 2 * len(cells)
        assert set(document["procs"]) == {
            "cell[stuck@0.0]", "cell[stuck@0.01]", "driver",
        }

    def test_payloads_carry_their_spans(self):
        cells = _cells(1)
        run, _, trace_id = _traced_run(cells)
        spans = run.payloads[0]["trace"]
        assert [span["name"] for span in spans] == ["evaluate", "cell[stuck@0.0]"]
        assert all(span["trace_id"] == trace_id for span in spans)

    def test_untraced_payloads_stay_untraced(self):
        run = run_sweep(_cells(1))
        assert "trace" not in run.payloads[0]


class TestCrossProcessStitching:
    @needs_fork
    def test_workers_4_yields_one_connected_trace(self):
        cells = _cells(4)
        _, log, trace_id = _traced_run(
            cells, workers=4, mp_context="fork"
        )
        document = trace_document(trace_id, log.spans_for(trace_id))
        validate_trace_document(document)
        assert document["span_count"] == 1 + 2 * len(cells)
        assert len(document["procs"]) == len(cells) + 1

    @needs_fork
    def test_trace_bytes_identical_across_worker_counts(self):
        cells = _cells(4)
        _, solo_log, trace_id = _traced_run(cells)
        _, pooled_log, _ = _traced_run(
            cells, workers=4, mp_context="fork"
        )
        _, shuffled_log, _ = _traced_run(
            cells, workers=4, mp_context="fork",
            shard_order=[3, 1, 2, 0],
        )
        solo = _trace_bytes(solo_log, trace_id)
        assert solo == _trace_bytes(pooled_log, trace_id)
        assert solo == _trace_bytes(shuffled_log, trace_id)

    @needs_fork
    def test_chrome_export_gives_each_cell_its_own_lane(self):
        cells = _cells(3)
        _, log, trace_id = _traced_run(
            cells, workers=3, mp_context="fork"
        )
        document = trace_chrome_document(log.spans_for(trace_id))
        lanes = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        assert lanes == {"driver"} | {
            f"cell[{cell.label}]" for cell in cells
        }


class TestCacheInteraction:
    def test_cached_replay_filters_stale_trace_spans(self, tmp_path):
        cells = _cells(2)
        cache = SweepCache(tmp_path / "cache")
        _, first_log, trace_id = _traced_run(cells, cache=cache)
        # Second run replays both cells from disk; the stored spans
        # belong to the first run's trace and must not be re-absorbed
        # into this one (their carriers were forked fresh).
        run, second_log, second_id = _traced_run(cells, cache=cache)
        assert run.stats["cache_hits"] == len(cells)
        assert second_id == trace_id  # same root name -> same id
        document = trace_document(
            second_id, second_log.spans_for(second_id)
        )
        validate_trace_document(document)

    def test_report_bytes_unchanged_by_tracing(self):
        cells = _cells(1)
        traced, _, _ = _traced_run(cells)
        untraced = run_sweep(cells)
        # The payload's "trace" key rides outside the deterministic
        # result sections the sweep report is built from.
        assert traced.payloads[0]["result"] == untraced.payloads[0]["result"]
        assert (
            traced.payloads[0]["counters"]
            == untraced.payloads[0]["counters"]
        )


class TestGoldenChromeTrace:
    """The EXPERIMENTS S3 trace, pinned by digest.

    CI compares the workers=1 and workers=4 traces with ``cmp``, which
    cannot catch a format drift that changes both sides alike; this
    pins the bytes of the documented run itself.
    """

    S3_SHA256 = (
        "b8600f975a01363a0e00160ad5c8d694288217c24608a94a7edf1ef5fb940b4f"
    )

    def test_s3_chrome_trace_digest(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        assert main([
            "sweep", "mlp", "--rates", "0.0,0.02", "--seeds", "0",
            "--count", "16", "--train-epochs", "1", "--batch", "8",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == self.S3_SHA256


class TestGoldenSweepReport:
    """The EXPERIMENTS S2 report, pinned by digest.

    The S2 table records one sha256 for the workers=1, workers=4 and
    cache-resume runs; this pins the bytes of the documented command.
    """

    S2_SHA256 = (
        "b6b59ce213381b2388b46c48016c62b7186448bc212d9d547b9fdeeebd9e368f"
    )

    def test_s2_report_digest(self, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main([
            "sweep", "mlp", "--rates", "0.0,0.02", "--seeds", "0,1",
            "--count", "16", "--train-epochs", "1", "--batch", "8",
            "--json",
        ]) == 0
        report = capsys.readouterr().out.encode()
        assert hashlib.sha256(report).hexdigest() == self.S2_SHA256
