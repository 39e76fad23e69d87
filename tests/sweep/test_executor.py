"""Executor determinism: worker count, shard order, cache resume."""

import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sweep import (
    SweepCache,
    SweepCell,
    register_cell_kind,
    run_sweep,
)
from repro.telemetry import Collector

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method required so workers inherit the toy kind",
)


def toy_cell(spec, collector):
    collector.count("work", 1)
    collector.count("weighted", spec["x"])
    return {"value": spec["x"] * 10 + spec.get("seed", 0)}


register_cell_kind("toy_exec", toy_cell)

CELLS = [SweepCell("toy_exec", {"name": f"c{x}", "x": x, "seed": x}) for x in range(5)]


def _bytes(run):
    return json.dumps(run.payloads, sort_keys=True).encode()


class TestDeterminism:
    def test_workers_do_not_change_payloads(self):
        solo = run_sweep(CELLS, workers=1)
        pooled = run_sweep(CELLS, workers=2, mp_context="fork")
        assert _bytes(solo) == _bytes(pooled)

    def test_shard_order_does_not_change_payloads(self):
        natural = run_sweep(CELLS, workers=2, mp_context="fork")
        reversed_ = run_sweep(
            CELLS, workers=2, mp_context="fork",
            shard_order=list(reversed(range(len(CELLS)))),
        )
        shuffled = run_sweep(
            CELLS, workers=2, mp_context="fork",
            shard_order=[2, 0, 4, 1, 3],
        )
        assert _bytes(natural) == _bytes(reversed_) == _bytes(shuffled)

    def test_payloads_align_with_input_order(self):
        run = run_sweep(
            CELLS, workers=2, mp_context="fork",
            shard_order=list(reversed(range(len(CELLS)))),
        )
        assert [p["spec"]["x"] for p in run.payloads] == [0, 1, 2, 3, 4]
        assert run.results() == [
            {"value": x * 10 + x} for x in range(5)
        ]


class TestValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(CELLS, workers=0)

    def test_bad_shard_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            run_sweep(CELLS, workers=1, shard_order=[0, 0, 1, 2, 3])
        with pytest.raises(ValueError, match="permutation"):
            run_sweep(CELLS, workers=1, shard_order=[0, 1])


class TestCacheResume:
    def test_second_run_replays_from_cache(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        first = run_sweep(CELLS, workers=2, cache=cache, mp_context="fork")
        assert first.stats == {
            "workers": 2, "cells": 5, "cache_hits": 0, "recomputed": 5,
        }
        assert len(cache) == 5
        second = run_sweep(CELLS, workers=2, cache=cache, mp_context="fork")
        assert second.stats == {
            "workers": 2, "cells": 5, "cache_hits": 5, "recomputed": 0,
        }
        assert _bytes(first) == _bytes(second)

    def test_partial_cache_resumes_remainder(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(CELLS[:2], workers=1, cache=cache)
        resumed = run_sweep(CELLS, workers=2, cache=cache, mp_context="fork")
        assert resumed.stats["cache_hits"] == 2
        assert resumed.stats["recomputed"] == 3
        assert _bytes(resumed) == _bytes(run_sweep(CELLS, workers=1))


class TestTelemetry:
    def _counters(self, **kwargs):
        collector = Collector()
        run_sweep(CELLS, collector=collector, **kwargs)
        return collector.counters()

    def test_merged_counters_identical_across_workers(self):
        solo = self._counters(workers=1)
        pooled = self._counters(workers=2, mp_context="fork")
        shuffled = self._counters(
            workers=2, mp_context="fork", shard_order=[4, 2, 0, 3, 1]
        )
        assert solo == pooled == shuffled
        assert solo["cells.total"] == 5
        assert solo["cell[c3]/work"] == 1
        assert solo["cell[c3]/weighted"] == 3

    def test_scope_for_hook(self):
        collector = Collector()
        run_sweep(
            CELLS[:2],
            collector=collector,
            scope_for=lambda index, cell: f"shard[{index}]",
        )
        counters = collector.counters()
        assert counters["shard[0]/work"] == 1
        assert counters["shard[1]/work"] == 1

    def test_cached_cells_still_merge_counters(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(CELLS, workers=1, cache=cache)
        collector = Collector()
        run_sweep(CELLS, workers=1, cache=cache, collector=collector)
        counters = collector.counters()
        assert counters["cells.cached"] == 5
        assert counters["cell[c1]/work"] == 1


def flaky_cell(spec, collector):
    if spec["x"] == 3:
        raise RuntimeError("cell 3 fails")
    return toy_cell(spec, collector)


class TestFailedSweepKeepsFinishedCells:
    CELLS = [
        SweepCell("toy_flaky", {"name": f"f{x}", "x": x, "seed": x})
        for x in range(6)
    ]

    def setup_method(self):
        # Each test ends by re-registering the kind as a working cell.
        register_cell_kind("toy_flaky", flaky_cell)

    def _resume(self, cache, cached):
        register_cell_kind("toy_flaky", toy_cell)
        resumed = run_sweep(self.CELLS, workers=1, cache=cache)
        assert resumed.stats["cache_hits"] == cached
        assert resumed.stats["recomputed"] == 6 - cached
        assert _bytes(resumed) == _bytes(run_sweep(self.CELLS, workers=1))

    def test_inline_failure_keeps_cells_before_it(self, tmp_path):
        cache = SweepCache(tmp_path)
        with pytest.raises(RuntimeError, match="cell 3 fails"):
            run_sweep(self.CELLS, workers=1, cache=cache)
        # Cells 0-2 finished before the 4th raised; 4 and 5 never ran.
        assert len(cache) == 3
        self._resume(cache, cached=3)

    def test_pool_failure_keeps_every_other_cell(self, tmp_path):
        cache = SweepCache(tmp_path)
        with pytest.raises(RuntimeError, match="cell 3 fails"):
            run_sweep(self.CELLS, workers=2, cache=cache, mp_context="fork")
        assert len(cache) == 5
        self._resume(cache, cached=5)

    def test_pool_counts_and_names_every_failed_cell(self, caplog):
        register_cell_kind("toy_flaky", flaky_cell)
        cells = self.CELLS + [
            SweepCell("toy_flaky", {"name": "f3b", "x": 3, "seed": 7})
        ]
        collector = Collector()
        with caplog.at_level("ERROR", logger="repro.sweep"):
            with pytest.raises(RuntimeError, match="cell 3 fails"):
                run_sweep(
                    cells, workers=2, collector=collector, mp_context="fork"
                )
        assert collector.get("cells.failed") == 2
        (summary,) = [
            record.getMessage()
            for record in caplog.records
            if "cell(s) failed" in record.getMessage()
        ]
        assert summary == "sweep: 2 cell(s) failed: f3, f3b"

    def test_inline_counts_the_failure_it_stops_at(self):
        collector = Collector()
        with pytest.raises(RuntimeError, match="cell 3 fails"):
            run_sweep(self.CELLS, workers=1, collector=collector)
        assert collector.get("cells.failed") == 1


def dying_cell(spec, collector):
    """Cell 3 kills its worker process while the marker file exists."""
    if spec["x"] == 3 and os.path.exists(spec["marker"]):
        os._exit(1)
    return toy_cell(spec, collector)


register_cell_kind("toy_dying", dying_cell)


def _alarm(signum, frame):
    raise TimeoutError("sweep hung after a worker process died")


class TestWorkerDeath:
    def test_dead_worker_raises_and_resume_recomputes_the_rest(
        self, tmp_path
    ):
        marker = tmp_path / "die"
        marker.write_text("")
        cells = [
            SweepCell(
                "toy_dying",
                {"name": f"d{x}", "x": x, "seed": x, "marker": str(marker)},
            )
            for x in range(6)
        ]
        cache = SweepCache(tmp_path / "cache")
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                run_sweep(cells, workers=2, cache=cache, mp_context="fork")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # Which other cells finished before the pool broke is a race;
        # the dead cell never did, and every finished one is stored.
        cached = len(cache)
        assert cached < len(cells)
        assert not cache.path_for(cells[3]).exists()

        marker.unlink()
        resumed = run_sweep(cells, workers=2, cache=cache, mp_context="fork")
        assert resumed.stats["cache_hits"] == cached
        assert resumed.stats["recomputed"] == len(cells) - cached
        assert _bytes(resumed) == _bytes(run_sweep(cells, workers=1))
