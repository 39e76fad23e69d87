"""Tests for Fig. 5: closed-form cycle counts vs the executed schedule."""

from dataclasses import replace

import pytest

from repro.core.pipeline import (
    asymptotic_training_speedup,
    inference_cycles_pipelined,
    inference_cycles_sequential,
    training_cycles_per_batch_pipelined,
    training_cycles_pipelined,
    training_cycles_sequential,
    training_speedup,
)
from repro.core.schedule import (
    simulate_inference_pipeline,
    simulate_training_pipeline,
    simulate_training_sequential,
)


class TestFormulas:
    def test_paper_sequential_formula(self):
        """(2L+1)N + N/B exactly as printed."""
        assert training_cycles_sequential(3, 12, 4) == 7 * 12 + 3

    def test_paper_pipelined_formula(self):
        """(N/B)(2L+B+1) exactly as printed."""
        assert training_cycles_pipelined(3, 12, 4) == 3 * (6 + 4 + 1)

    def test_per_batch(self):
        assert training_cycles_per_batch_pipelined(5, 8) == 10 + 8 + 1

    def test_pipelined_never_slower(self):
        for layers in (1, 3, 8):
            for batch in (1, 4, 64):
                n_inputs = batch * 5
                assert training_cycles_pipelined(
                    layers, n_inputs, batch
                ) <= training_cycles_sequential(layers, n_inputs, batch)

    def test_speedup_grows_with_batch(self):
        speedups = [
            training_speedup(4, 256 * b, b) for b in (1, 8, 64, 256)
        ]
        assert speedups == sorted(speedups)

    def test_asymptotic_limit_large_batch(self):
        """For B >> L the speedup approaches 2L + 1."""
        layers = 5
        value = asymptotic_training_speedup(layers, 100000)
        assert value == pytest.approx(2 * layers + 1, rel=1e-3)

    def test_asymptotic_matches_finite_large_n(self):
        layers, batch = 4, 16
        finite = training_speedup(layers, batch * 10000, batch)
        assert finite == pytest.approx(
            asymptotic_training_speedup(layers, batch), rel=1e-3
        )

    def test_inference_formulas(self):
        assert inference_cycles_sequential(4, 10) == 40
        assert inference_cycles_pipelined(4, 10) == 13

    def test_rejects_ragged_batches(self):
        with pytest.raises(ValueError):
            training_cycles_pipelined(3, 10, 4)


class TestScheduleAgreement:
    """The event-driven simulator must reproduce every formula."""

    @pytest.mark.parametrize(
        "layers,n_inputs,batch",
        [
            (1, 4, 2),
            (3, 12, 4),
            (3, 12, 12),
            (5, 40, 8),
            (2, 30, 5),
            (8, 16, 16),
            (4, 6, 1),
        ],
    )
    def test_pipelined_makespan(self, layers, n_inputs, batch):
        result = simulate_training_pipeline(layers, n_inputs, batch)
        result.validate()
        assert result.makespan == training_cycles_pipelined(
            layers, n_inputs, batch
        )

    @pytest.mark.parametrize(
        "layers,n_inputs,batch", [(1, 4, 2), (3, 12, 4), (5, 10, 5)]
    )
    def test_sequential_makespan(self, layers, n_inputs, batch):
        result = simulate_training_sequential(layers, n_inputs, batch)
        result.validate()
        assert result.makespan == training_cycles_sequential(
            layers, n_inputs, batch
        )

    def test_inference_makespan(self):
        result = simulate_inference_pipeline(4, 10)
        result.check_structural_hazards()
        result.check_stage_progression()
        assert result.makespan == inference_cycles_pipelined(4, 10)

    def test_pipeline_occupancy_beats_sequential(self):
        pipelined = simulate_training_pipeline(3, 24, 8)
        sequential = simulate_training_sequential(3, 24, 8)
        assert pipelined.occupancy() > sequential.occupancy()

    def test_new_input_every_cycle_within_batch(self):
        """Fig. 5(b): 'a new input could enter every cycle within a
        batch'."""
        result = simulate_training_pipeline(3, 8, 8)
        entries = {}
        for event in result.events:
            if event.stage == 0:
                entries[event.element] = event.cycle
        cycles = [entries[i] for i in range(8)]
        assert cycles == list(range(8))

    def test_batch_barrier_enforced(self):
        """An input of batch k+1 must not start before batch k's
        update."""
        result = simulate_training_pipeline(2, 8, 4)
        updates = [e.cycle for e in result.events if e.stage < 0]
        second_batch_start = min(
            e.cycle
            for e in result.events
            if e.stage >= 0 and e.element >= 4
        )
        assert second_batch_start == updates[0] + 1

    def test_structural_hazard_detection_works(self):
        """The validator itself must catch a corrupted schedule."""
        result = simulate_training_pipeline(2, 4, 2)
        duplicate = result.events[0]
        result.events.append(duplicate)
        with pytest.raises(AssertionError):
            result.check_structural_hazards()


class TestCheckersCatchCorruption:
    """Each dependency check rejects its own hand-corrupted table."""

    @pytest.fixture()
    def result(self):
        result = simulate_training_pipeline(2, 8, 4)
        result.validate()
        return result

    def _shift(self, result, select, by):
        result.events = [
            replace(e, cycle=e.cycle + by) if select(e) else e
            for e in result.events
        ]

    def test_stalled_input(self, result):
        self._shift(
            result,
            lambda e: e.element == 3 and e.stage >= 2,
            1,
        )
        with pytest.raises(AssertionError, match="input 3 stalled"):
            result.check_stage_progression()

    def test_skipped_stage(self, result):
        result.events = [
            e for e in result.events
            if not (e.element == 2 and e.stage == 3)
        ]
        with pytest.raises(AssertionError, match="input 2 skipped"):
            result.check_stage_progression()

    def test_missing_update(self, result):
        first = next(e for e in result.events if e.stage < 0)
        result.events.remove(first)
        with pytest.raises(AssertionError, match="1 updates for 2"):
            result.check_batch_barrier()

    def test_late_update(self, result):
        self._shift(
            result,
            lambda e: e.stage < 0 and e.element == 0,
            1,
        )
        with pytest.raises(AssertionError, match="batch 0 update at"):
            result.check_batch_barrier()

    def test_next_batch_starts_before_update(self, result):
        self._shift(
            result,
            lambda e: e.stage >= 0 and e.element >= 4,
            -1,
        )
        with pytest.raises(AssertionError, match="batch 1 started at"):
            result.check_batch_barrier()

    def test_batch_without_compute_events(self, result):
        result.events = [
            e for e in result.events
            if not (e.stage >= 0 and e.element >= 4)
        ]
        with pytest.raises(
            AssertionError, match="batch 1 has no compute events"
        ):
            result.check_batch_barrier()
