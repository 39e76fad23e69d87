"""The coalescing bit-identity contract (acceptance criterion).

N inference requests coalesced into one batched crossbar evaluation
must produce bit-identical outputs to N sequential single-request
runs — on both engine backends, on the fast-ideal and the full
bit-serial datapaths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import InferenceJob, Simulator
from repro.serve.batcher import batch_invariant, run_coalesced
from repro.telemetry import Collector
from repro.xbar.engine import CrossbarEngineConfig


def _jobs():
    return [
        InferenceJob(workload="mlp", seed=3, count=6, batch=3),
        InferenceJob(
            workload="mlp", seed=3, count=4, batch=2, input_seed=71
        ),
        InferenceJob(
            workload="mlp", seed=3, count=5, batch=4, input_seed=72,
            tenant="other",
        ),
    ]


@pytest.mark.parametrize("backend", ["loop", "vectorized"])
@pytest.mark.parametrize("fast_ideal", [True, False])
def test_coalesced_bit_identical_to_sequential(backend, fast_ideal):
    config = CrossbarEngineConfig(
        activation_range=8.0,
        fast_ideal=fast_ideal,
        array_rows=32,
        array_cols=32,
    )
    assert batch_invariant(config)
    shared = Simulator.from_workload(
        "mlp", engine_config=config, backend=backend, seed=3
    )
    collector = Collector()
    coalesced = run_coalesced(shared, _jobs(), collector=collector)
    assert collector.get("coalesced.jobs") == 3
    assert collector.get("coalesced.batches") == 1

    for job, batched in zip(_jobs(), coalesced):
        solo_sim = Simulator.from_workload(
            "mlp", engine_config=config, backend=backend, seed=3
        )
        solo = solo_sim.run(job)
        assert np.array_equal(batched.outputs, solo.outputs), (
            f"coalesced != sequential for {job} on {backend}"
        )
        assert batched.accuracy == solo.accuracy
        assert batched.count == solo.count


def test_backends_agree_on_coalesced_outputs():
    config = CrossbarEngineConfig(
        activation_range=8.0, array_rows=32, array_cols=32
    )
    outputs = {}
    for backend in ("loop", "vectorized"):
        sim = Simulator.from_workload(
            "mlp", engine_config=config, backend=backend, seed=3
        )
        outputs[backend] = [
            result.outputs for result in run_coalesced(sim, _jobs())
        ]
    for left, right in zip(outputs["loop"], outputs["vectorized"]):
        assert np.array_equal(left, right)


def test_empty_job_list_is_a_noop():
    sim = Simulator.from_workload(
        "mlp",
        engine_config=CrossbarEngineConfig(activation_range=8.0),
        seed=3,
    )
    assert run_coalesced(sim, []) == []


@pytest.mark.parametrize("fast_ideal", [True, False])
def test_single_job_matches_simulator_run(fast_ideal):
    # The server runs a lone cached inference job through
    # run_coalesced as a unit of one: same outputs and the same engine
    # events (hence the same priced energy) as Simulator.run, and no
    # coalesced-batch tallies.
    config = CrossbarEngineConfig(
        activation_range=8.0,
        fast_ideal=fast_ideal,
        array_rows=32,
        array_cols=32,
    )
    job = _jobs()[1]
    unit_sim, solo_sim = (
        Simulator.from_workload(
            "mlp", engine_config=config, seed=3, collector=Collector()
        )
        for _ in range(2)
    )
    collector = Collector()
    (unit,) = run_coalesced(unit_sim, [job], collector=collector)
    solo = solo_sim.run(job)
    assert np.array_equal(unit.outputs, solo.outputs)
    assert unit.accuracy == solo.accuracy
    assert collector.get("coalesced.batches") == 0
    assert collector.get("coalesced.jobs") == 0

    def engine_events(sim):
        return {
            path: value
            for path, value in sim.counters_snapshot().items()
            if not path.startswith("inference.")
        }

    assert engine_events(unit_sim) == engine_events(solo_sim)
