"""The redesigned facade entry points: Simulator.run / run_job.

Pins the API contract the serve layer builds on: a spec must describe
the simulator it runs on, explicit input seeds draw independent
streams, and the programmed state identity (``cache_key`` + in-engine
reprogram skipping) behaves as the cache assumes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    InferenceJob,
    ReliabilityJob,
    Simulator,
    TrainingJob,
    run_job,
)
from repro.telemetry import Collector
from repro.xbar.engine import CrossbarEngineConfig


class TestSimulatorRun:
    def test_mismatched_spec_rejected(self):
        sim = Simulator.from_workload("mlp", seed=1)
        with pytest.raises(ValueError, match="does not describe"):
            sim.run(InferenceJob(workload="mlp", seed=2))

    def test_reliability_job_rejected_with_pointer(self):
        sim = Simulator.from_workload("mlp", seed=1)
        with pytest.raises(TypeError, match="run_job"):
            sim.run(ReliabilityJob(workload="mlp", seed=1))

    def test_scoped_collector_counters_snapshot(self):
        """A simulator on a scope snapshots that scope's subtree."""
        root = Collector()
        sim = Simulator.from_workload(
            "mlp", seed=1, collector=root.scope("job")
        )
        sim.run(InferenceJob(workload="mlp", seed=1, count=4, batch=4))
        expected = {
            path[len("job/"):]: value
            for path, value in root.counters().items()
            if path.startswith("job/")
        }
        assert expected
        assert sim.counters_snapshot() == expected

    def test_input_seed_draws_independent_stream(self):
        sim = Simulator.from_workload("mlp", seed=3)
        canonical = sim.run(
            InferenceJob(workload="mlp", seed=3, count=8, batch=8)
        )
        other = sim.run(
            InferenceJob(
                workload="mlp", seed=3, count=8, batch=8, input_seed=41
            )
        )
        again = sim.run(
            InferenceJob(
                workload="mlp", seed=3, count=8, batch=8, input_seed=41
            )
        )
        assert not np.array_equal(canonical.outputs, other.outputs)
        assert np.array_equal(other.outputs, again.outputs)


class TestRunJob:
    def test_inference_one_shot(self):
        result = run_job(
            InferenceJob(workload="mlp", seed=4, count=8, batch=8)
        )
        assert result.count == 8
        assert result.outputs.shape[0] == 8

    def test_reliability_routes_to_campaign(self):
        document = run_job(
            ReliabilityJob(
                workload="mlp",
                seed=0,
                rates=(0.05,),
                count=8,
                batch=8,
                train_epochs=0,
                include_tiles=False,
            )
        )
        assert document["axis"] == "stuck"
        assert "schema_version" in document

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            run_job({"kind": "inference"})


class TestCacheKey:
    def test_same_spec_same_key(self):
        key_a = Simulator.from_workload(
            "mlp", seed=3, deploy=False
        ).cache_key()
        key_b = Simulator.from_workload(
            "mlp", seed=3, deploy=False
        ).cache_key()
        assert key_a == key_b

    def test_seed_changes_weights_hash_only(self):
        key_a = Simulator.from_workload(
            "mlp", seed=3, deploy=False
        ).cache_key()
        key_b = Simulator.from_workload(
            "mlp", seed=4, deploy=False
        ).cache_key()
        assert key_a[0] != key_b[0]
        assert key_a[1] == key_b[1]

    def test_config_changes_device_hash_only(self):
        probe = Simulator.from_workload("mlp", seed=3, deploy=False)
        key_a = probe.cache_key(CrossbarEngineConfig())
        key_b = probe.cache_key(
            CrossbarEngineConfig(activation_range=8.0)
        )
        assert key_a[0] == key_b[0]
        assert key_a[1] != key_b[1]

    def test_deployed_simulator_uses_engine_config(self):
        config = CrossbarEngineConfig(activation_range=8.0)
        deployed = Simulator.from_workload(
            "mlp", engine_config=config, seed=3
        )
        probe = Simulator.from_workload("mlp", seed=3, deploy=False)
        assert deployed.cache_key() == probe.cache_key(config)


class TestEngineReprogramSkip:
    def test_repeat_inference_does_not_reprogram(self):
        sim = Simulator.from_workload("mlp", seed=3)
        job = InferenceJob(workload="mlp", seed=3, count=8, batch=8)
        first = sim.run(job)
        programs_after_first = first.stats["array_programs"]
        second = sim.run(job)
        assert second.stats["array_programs"] == programs_after_first
        assert np.array_equal(first.outputs, second.outputs)

    def test_training_reprograms(self):
        sim = Simulator.from_workload("mlp", seed=3)
        baseline = sim.stats().get("array_programs", 0)
        sim.run(
            TrainingJob(
                workload="mlp",
                seed=3,
                epochs=1,
                batch=8,
                train_count=16,
                test_count=8,
            )
        )
        assert sim.stats()["array_programs"] > baseline
