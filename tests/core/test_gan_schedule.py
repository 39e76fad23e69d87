"""Tests for the executed GAN schedules vs the Fig. 8/9 formulas."""

from dataclasses import replace

import pytest

from repro.core.gan_pipeline import SCHEMES, iteration_cycles
from repro.core.schedule import simulate_gan_iteration, verify_scheme

CONFIGS = [(4, 5, 16), (5, 5, 32), (3, 6, 8), (1, 1, 1), (2, 7, 4), (8, 2, 64)]


class TestFormulaAgreement:
    @pytest.mark.parametrize("l_d,l_g,batch", CONFIGS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_makespan_matches_formula(self, l_d, l_g, batch, scheme):
        """Execution == closed form for every scheme and shape."""
        record = verify_scheme(l_d, l_g, batch, scheme)
        assert record["match"], record

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_structurally_valid(self, scheme):
        result = simulate_gan_iteration(4, 5, 8, scheme)
        result.validate()  # hazards + update ordering


class TestScheduleStructure:
    def test_sp_uses_two_d_copies(self):
        result = simulate_gan_iteration(3, 3, 4, "sp")
        resources = {e.resource for e in result.events if e.stage >= 0}
        assert "D0" in resources and "D1" in resources

    def test_pipelined_uses_one_d_copy(self):
        result = simulate_gan_iteration(3, 3, 4, "pipelined")
        resources = {e.resource for e in result.events if e.stage >= 0}
        assert "D1" not in resources

    def test_cs_has_merged_dataflows(self):
        result = simulate_gan_iteration(3, 3, 4, "cs")
        dataflows = {e.dataflow for e in result.events}
        assert "merged_d_branch" in dataflows
        assert "merged_g_branch" in dataflows
        assert "d_fake" not in dataflows  # absorbed into the merge

    def test_cs_d_update_before_g_update(self):
        """Fig. 9: D updates at T11, G at T14."""
        result = simulate_gan_iteration(3, 3, 4, "sp_cs")
        updates = {e.dataflow: e.cycle for e in result.updates()}
        assert updates["D update"] < updates["G update"]

    def test_pipelined_updates_after_drain(self):
        result = simulate_gan_iteration(3, 3, 4, "pipelined")
        result.check_update_ordering()

    def test_unpipelined_one_element_at_a_time(self):
        """Unpipelined: no two elements compute in the same cycle
        within the D-training phases."""
        result = simulate_gan_iteration(2, 2, 3, "unpipelined")
        per_cycle = {}
        for event in result.events:
            if event.stage >= 0 and event.dataflow in ("d_real", "d_fake"):
                per_cycle.setdefault(event.cycle, set()).add(event.element)
        assert all(len(elements) == 1 for elements in per_cycle.values())

    def test_hazard_detector_catches_corruption(self):
        result = simulate_gan_iteration(2, 2, 2, "pipelined")
        compute = [e for e in result.events if e.stage >= 0][0]
        result.events.append(compute)
        with pytest.raises(AssertionError):
            result.check_structural_hazards()

    def test_update_checker_catches_missing_update(self):
        result = simulate_gan_iteration(2, 2, 2, "pipelined")
        result.events = [
            e for e in result.events if e.dataflow != "G update"
        ]
        with pytest.raises(AssertionError):
            result.check_update_ordering()

    def test_update_checker_catches_early_d_update(self):
        result = simulate_gan_iteration(2, 2, 2, "pipelined")
        last_d = max(
            e.cycle for e in result.events
            if e.dataflow in ("d_real", "d_fake")
        )
        result.events = [
            replace(e, cycle=last_d) if e.dataflow == "D update" else e
            for e in result.events
        ]
        with pytest.raises(AssertionError, match="D updated before"):
            result.check_update_ordering()

    def test_update_checker_catches_cs_g_before_d(self):
        result = simulate_gan_iteration(2, 2, 2, "cs")
        g_update = next(
            e.cycle for e in result.events if e.dataflow == "G update"
        )
        result.events = [
            replace(e, cycle=g_update + 1)
            if e.dataflow == "D update" else e
            for e in result.events
        ]
        with pytest.raises(AssertionError, match="computation sharing"):
            result.check_update_ordering()

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            simulate_gan_iteration(2, 2, 2, "quantum")


class TestSpeedupFromExecution:
    def test_sp_cs_executes_fastest(self):
        makespans = {
            scheme: simulate_gan_iteration(5, 5, 32, scheme).makespan
            for scheme in SCHEMES
        }
        assert makespans["sp_cs"] == min(makespans.values())
        assert makespans["unpipelined"] == max(makespans.values())

    def test_execution_speedup_matches_formula_speedup(self):
        base = simulate_gan_iteration(4, 4, 16, "unpipelined").makespan
        fast = simulate_gan_iteration(4, 4, 16, "sp_cs").makespan
        assert base / fast == pytest.approx(
            iteration_cycles(4, 4, 16, "unpipelined")
            / iteration_cycles(4, 4, 16, "sp_cs")
        )
