"""Tests for the technology-sensitivity analysis."""

import pytest

from repro.arch.params import DEFAULT_TECH
from repro.arch.sensitivity import (
    METRICS,
    SWEEPABLE_FIELDS,
    SensitivityRow,
    conclusion_robustness,
    scaled_tech,
    tech_sensitivity,
)


class TestScaledTech:
    def test_scales_one_field(self):
        tech = scaled_tech(DEFAULT_TECH, "subcycle_time", 2.0)
        assert tech.subcycle_time == 2 * DEFAULT_TECH.subcycle_time
        assert tech.cell_write_energy == DEFAULT_TECH.cell_write_energy

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            scaled_tech(DEFAULT_TECH, "quantum_flux", 2.0)

    def test_non_positive_factor_rejected(self):
        with pytest.raises(ValueError):
            scaled_tech(DEFAULT_TECH, "subcycle_time", 0.0)


class TestSensitivityRow:
    def test_swing_and_direction(self):
        row = SensitivityRow(
            field="x", low_factor=0.5, high_factor=2.0,
            metric_low=8.0, metric_nominal=10.0, metric_high=12.0,
        )
        assert row.swing == pytest.approx(0.4)
        assert row.direction == "increasing"

    def test_flat_direction(self):
        row = SensitivityRow("x", 0.5, 2.0, 5.0, 5.0, 5.0)
        assert row.direction == "flat"
        assert row.swing == 0.0


def _subcycle_ns(tech):
    return tech.subcycle_time * 1e9


class TestTechSensitivity:
    @pytest.fixture
    def metric(self, monkeypatch):
        """Register ``fn`` as a named metric for one test; return its name."""

        def register(fn):
            monkeypatch.setitem(METRICS, "under_test", fn)
            return "under_test"

        return register

    def test_linear_metric_has_unit_swing(self, metric):
        rows = tech_sensitivity(
            metric(_subcycle_ns), field_names=("subcycle_time",)
        )
        # Metric linear in the field: swing = (2 - 0.5) = 1.5.
        assert rows[0].swing == pytest.approx(1.5)

    def test_independent_field_flat(self, metric):
        rows = tech_sensitivity(
            metric(_subcycle_ns), field_names=("cell_write_energy",)
        )
        assert rows[0].swing == 0.0

    def test_sorted_by_swing(self, metric):
        rows = tech_sensitivity(
            metric(
                lambda tech: tech.subcycle_time * 1e9
                + tech.cell_write_energy * 1e10
            ),
            field_names=("subcycle_time", "cell_write_energy"),
        )
        assert rows[0].swing >= rows[1].swing

    def test_zero_nominal_rejected(self, metric):
        with pytest.raises(ValueError):
            tech_sensitivity(
                metric(lambda tech: 0.0), field_names=("subcycle_time",)
            )

    def test_default_sweep_covers_declared_fields(self, metric):
        rows = tech_sensitivity(metric(_subcycle_ns))
        assert {row.field for row in rows} == set(SWEEPABLE_FIELDS)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown sensitivity metric"):
            tech_sensitivity("latency")


class TestConclusionRobustness:
    def test_held_everywhere(self):
        held = conclusion_robustness(
            metrics={"t": lambda tech: tech.subcycle_time},
            predicates={"positive": lambda v: v["t"] > 0},
            field_names=("subcycle_time",),
        )
        assert held == {"positive": True}

    def test_violated_at_corner(self):
        nominal = DEFAULT_TECH.subcycle_time
        held = conclusion_robustness(
            metrics={"t": lambda tech: tech.subcycle_time},
            predicates={"small": lambda v: v["t"] < 1.5 * nominal},
            field_names=("subcycle_time",),
        )
        assert held == {"small": False}  # fails at the 2x corner
