"""Scheduling policy and programmed-state cache unit contracts."""

from __future__ import annotations

import threading

import pytest

from repro.serve.cache import ProgrammedStateCache
from repro.serve.jobs import InferenceJob, TrainingJob
from repro.serve.scheduler import coalesce_plan, compatibility_key
from repro.telemetry import Collector
from repro.xbar.engine import CrossbarEngineConfig

INVARIANT = CrossbarEngineConfig(activation_range=8.0)


def _partition_of(units: tuple, n: int) -> list:
    indices = sorted(i for unit in units for i in unit)
    assert indices == list(range(n))
    return indices


class TestBatchInvariance:
    def test_pinned_ideal_config_is_invariant(self):
        assert INVARIANT.is_batch_invariant

    def test_observed_range_is_not(self):
        assert not CrossbarEngineConfig().is_batch_invariant

    def test_nonideal_pipeline_is_not(self):
        from dataclasses import replace

        from repro.xbar.device import PIPELAYER_DEVICE

        noisy = CrossbarEngineConfig(
            activation_range=8.0,
            device=replace(PIPELAYER_DEVICE, read_noise=0.05),
        )
        assert not noisy.is_batch_invariant


class TestCoalescePlan:
    def test_same_key_jobs_group(self):
        jobs = [
            InferenceJob(workload="mlp", seed=3) for _ in range(3)
        ]
        units = coalesce_plan(jobs, INVARIANT)
        assert units == ((0, 1, 2),)
        _partition_of(units, 3)

    def test_mixed_kinds_and_seeds(self):
        jobs = [
            InferenceJob(workload="mlp", seed=3),
            TrainingJob(workload="mlp", seed=3),
            InferenceJob(workload="mlp", seed=4),
            InferenceJob(workload="mlp", seed=3, input_seed=9),
        ]
        units = coalesce_plan(jobs, INVARIANT)
        assert units == ((0, 3), (1,), (2,))
        _partition_of(units, 4)

    def test_non_invariant_config_never_groups(self):
        jobs = [InferenceJob(workload="mlp", seed=3) for _ in range(4)]
        units = coalesce_plan(jobs, CrossbarEngineConfig())
        assert units == ((0,), (1,), (2,), (3,))

    def test_max_coalesce_chunks(self):
        jobs = [InferenceJob(workload="mlp", seed=3) for _ in range(5)]
        units = coalesce_plan(jobs, INVARIANT, max_coalesce=2)
        assert units == ((0, 1), (2, 3), (4,))
        _partition_of(units, 5)

    def test_units_run_groups_in_key_order_then_singles_by_arrival(self):
        jobs = [
            InferenceJob(workload="mlp", seed=4),
            TrainingJob(workload="mlp", seed=3),
            InferenceJob(workload="mlp", seed=4),
            InferenceJob(workload="mlp", seed=3),
            InferenceJob(workload="mlp", seed=3),
            InferenceJob(workload="mlp", seed=4),
        ]
        collector = Collector()
        units = coalesce_plan(
            jobs, INVARIANT, max_coalesce=2, collector=collector
        )
        assert units == ((3, 4), (0, 2), (1,), (5,))
        histogram = collector.histograms()["coalesce/batch_size_jobs"]
        assert histogram["count"] == len(units)
        assert histogram["sum"] == len(jobs)

    def test_backend_splits_compatibility(self):
        jobs = [
            InferenceJob(workload="mlp", seed=3, backend="loop"),
            InferenceJob(workload="mlp", seed=3, backend="vectorized"),
            InferenceJob(workload="mlp", seed=3),
        ]
        units = coalesce_plan(jobs, INVARIANT)
        # default backend resolves to vectorized -> 1 and 2 share a key
        assert units == ((1, 2), (0,))
        assert compatibility_key(jobs[2], INVARIANT) == compatibility_key(
            jobs[1], INVARIANT
        )

    def test_unpinned_backend_resolves_against_engine_config(self):
        from dataclasses import replace

        loop = replace(INVARIANT, backend="loop")
        jobs = [
            InferenceJob(workload="mlp", seed=3),
            InferenceJob(workload="mlp", seed=3, backend="loop"),
            InferenceJob(workload="mlp", seed=3, backend="vectorized"),
        ]
        units = coalesce_plan(jobs, loop)
        assert units == ((0, 1), (2,))
        # The cache deploys the unpinned job under the same backend.
        cache = ProgrammedStateCache(engine_config=loop)
        assert cache.resolved_config(jobs[0].backend).backend == "loop"

    def test_plan_is_deterministic(self):
        jobs = [
            InferenceJob(workload="mlp", seed=s % 3) for s in range(9)
        ]
        plans = [coalesce_plan(jobs, INVARIANT) for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]

    def test_bad_max_coalesce(self):
        with pytest.raises(ValueError):
            coalesce_plan([], INVARIANT, max_coalesce=0)


class TestProgrammedStateCache:
    def test_hit_miss_accounting(self):
        collector = Collector()
        cache = ProgrammedStateCache(
            engine_config=INVARIANT, collector=collector.scope("serve")
        )
        job = InferenceJob(workload="mlp", seed=3)
        entry_a = cache.lease(job)
        entry_b = cache.lease(job)
        assert entry_a is entry_b
        other = cache.lease(InferenceJob(workload="mlp", seed=4))
        assert other is not entry_a
        assert cache.stats() == {
            "hits": 1,
            "misses": 2,
            "entries": 2,
            "evictions": 0,
        }
        assert collector.get("serve/cache/hits") == 1
        assert collector.get("serve/cache/misses") == 2

    def test_key_ignores_tenant_and_inputs(self):
        cache = ProgrammedStateCache(engine_config=INVARIANT)
        key_a = cache.key_for(
            InferenceJob(workload="mlp", seed=3, tenant="a", input_seed=1)
        )
        key_b = cache.key_for(
            InferenceJob(workload="mlp", seed=3, tenant="b", count=99)
        )
        assert key_a == key_b

    def test_key_tracks_backend(self):
        cache = ProgrammedStateCache(engine_config=INVARIANT)
        vec = cache.key_for(InferenceJob(workload="mlp", seed=3))
        loop = cache.key_for(
            InferenceJob(workload="mlp", seed=3, backend="loop")
        )
        assert vec[0] == loop[0]  # same weights
        assert vec[1] != loop[1]  # different resolved config

    def test_single_flight_under_contention(self):
        cache = ProgrammedStateCache(engine_config=INVARIANT)
        job = InferenceJob(workload="mlp", seed=5)
        entries = []

        def lease():
            entries.append(cache.lease(job))

        threads = [threading.Thread(target=lease) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry) for entry in entries}) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 5
        assert stats["entries"] == 1

    def test_lru_eviction_bounds_entries(self):
        collector = Collector()
        cache = ProgrammedStateCache(
            engine_config=INVARIANT,
            collector=collector.scope("serve"),
            max_entries=2,
        )
        jobs = [InferenceJob(workload="mlp", seed=s) for s in (1, 2, 3)]
        for job in jobs:
            cache.lease(job)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert collector.get("serve/cache/evictions") == 1
        # seed=1 was the least recently used entry, so it is gone:
        # re-leasing it misses (and evicts seed=2 in turn).
        cache.lease(jobs[0])
        stats = cache.stats()
        assert stats["misses"] == 4
        assert stats["hits"] == 0
        assert stats["evictions"] == 2

    def test_lru_recency_updates_on_hit(self):
        cache = ProgrammedStateCache(
            engine_config=INVARIANT, max_entries=2
        )
        a = InferenceJob(workload="mlp", seed=1)
        b = InferenceJob(workload="mlp", seed=2)
        c = InferenceJob(workload="mlp", seed=3)
        cache.lease(a)
        cache.lease(b)
        cache.lease(a)  # refresh a: b becomes least recently used
        cache.lease(c)  # evicts b, not a
        assert cache.stats()["evictions"] == 1
        cache.lease(a)
        assert cache.stats()["hits"] == 2  # a survived the eviction

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ProgrammedStateCache(engine_config=INVARIANT, max_entries=0)

    def test_clear_drops_entries_keeps_totals(self):
        cache = ProgrammedStateCache(engine_config=INVARIANT)
        job = InferenceJob(workload="mlp", seed=3)
        first = cache.lease(job)
        cache.clear()
        second = cache.lease(job)
        assert first is not second
        assert cache.stats()["misses"] == 2
