"""Tests for the fault-injection campaign subsystem.

The contract under test: campaigns are deterministic (same seed, same
arguments, byte-identical JSON), backend-consistent (loop and
vectorized engines report identical fault outcomes), and their damage
metrics move the right way as fault rates climb.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import ReliabilityJob, Simulator, run_job
from repro.reliability import (
    AXES,
    DEFAULT_RATES,
    BackendMismatchError,
    FaultScenario,
    campaign_summary,
    lockstep_trace,
    output_metrics,
    record_reference,
    relative_rms,
    run_campaign,
    scenarios_for,
)
from repro.reliability import campaign as campaign_module
from repro.reliability.campaign import _build_reference
from repro.xbar.device import PIPELAYER_DEVICE

FAST = dict(workload="mlp", count=16, batch=8, train_epochs=1)


class TestScenarios:
    def test_default_rates_start_fault_free(self):
        for axis in AXES:
            scenarios = scenarios_for(axis)
            assert scenarios[0].rate == 0.0
            assert [s.rate for s in scenarios] == list(DEFAULT_RATES[axis])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            scenarios_for("gamma-rays")

    def test_device_applies_only_its_axis(self):
        scenario = FaultScenario(name="upset=0.01", axis="upset", rate=0.01)
        device = scenario.device(PIPELAYER_DEVICE)
        assert device.upset_rate == 0.01
        assert device.stuck_off_rate == PIPELAYER_DEVICE.stuck_off_rate
        assert device.drift_nu == PIPELAYER_DEVICE.drift_nu

    def test_stuck_axis_splits_rate(self):
        scenario = FaultScenario(name="stuck=0.1", axis="stuck", rate=0.1)
        device = scenario.device(PIPELAYER_DEVICE)
        assert device.stuck_off_rate == pytest.approx(0.05)
        assert device.stuck_on_rate == pytest.approx(0.05)


class TestCampaignDeterminism:
    def test_same_seed_byte_identical_json(self):
        first = run_campaign(seed=5, rates=(0.0, 0.02), **FAST)
        second = run_campaign(seed=5, rates=(0.0, 0.02), **FAST)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_differs(self):
        first = run_campaign(seed=5, rates=(0.05,), **FAST)
        second = run_campaign(seed=6, rates=(0.05,), **FAST)
        assert first["scenarios"][0] != second["scenarios"][0]

    def test_backends_report_identical_outcomes(self):
        report = run_campaign(
            seed=3, rates=(0.0, 0.05), backend="both", **FAST
        )
        assert report["backends_match"] is True

    def test_report_is_json_able(self):
        report = run_campaign(seed=1, rates=(0.01,), **FAST)
        json.dumps(report)  # raises on any stray numpy scalar/array


class TestCampaignMetrics:
    def test_fault_free_point_reports_no_damage(self):
        report = run_campaign(seed=2, axis="upset", rates=(0.0,), **FAST)
        scenario = report["scenarios"][0]
        assert scenario["mismatch_rate"] == 0.0
        for layer in scenario["layers"]:
            assert layer["stuck_off"] == 0
            assert layer["stuck_on"] == 0

    def test_stuck_census_grows_with_rate(self):
        report = run_campaign(
            seed=2, axis="stuck", rates=(0.0, 0.01, 0.2), **FAST
        )
        totals = [
            sum(
                layer["stuck_off"] + layer["stuck_on"]
                for layer in scenario["layers"]
            )
            for scenario in report["scenarios"]
        ]
        assert totals[0] == 0
        assert totals[0] < totals[1] < totals[2]

    def test_damage_grows_with_rate(self):
        report = run_campaign(
            seed=2, axis="upset", rates=(0.0, 0.01, 0.3), **FAST
        )
        errors = [
            scenario["logit_rms_error"] for scenario in report["scenarios"]
        ]
        assert errors == sorted(errors)
        assert errors[-1] > errors[0]

    def test_layer_records_cover_weighted_layers(self):
        report = run_campaign(seed=0, rates=(0.05,), **FAST)
        layers = report["scenarios"][0]["layers"]
        assert len(layers) > 0
        for layer in layers:
            assert layer["output_rms_error"] >= 0.0
            assert layer["weight_rms_error"] >= 0.0
            assert layer["arrays"] > 0

    def test_tiles_opt_out(self):
        report = run_campaign(
            seed=0, rates=(0.05,), include_tiles=False, **FAST
        )
        for layer in report["scenarios"][0]["layers"]:
            assert "tiles" not in layer

    def test_summary_renders(self):
        report = run_campaign(seed=0, rates=(0.0, 0.05), **FAST)
        text = campaign_summary(report)
        assert "stuck=0.05" in text
        assert "golden accuracy" in text

    def test_facade_report_matches_campaign(self):
        direct = run_campaign(seed=4, rates=(0.02,), **FAST)
        facade = run_job(ReliabilityJob(seed=4, rates=(0.02,), **FAST))
        assert direct == facade

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            run_campaign(backend="gpu", **FAST)
        with pytest.raises(ValueError):
            run_campaign(count=0)

    def test_negative_train_epochs_rejected_before_training(
        self, monkeypatch
    ):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference built for a rejected campaign")

        monkeypatch.setattr(campaign_module, "reference_context", no_reference)
        with pytest.raises(ValueError, match="train_epochs"):
            run_campaign(**{**FAST, "train_epochs": -1})
        with pytest.raises(ValueError, match="train_epochs"):
            campaign_module.campaign_cells(
                "mlp", scenarios_for("stuck"), (0,), ("vectorized",),
                count=16, batch=8, train_epochs=-2, include_tiles=False,
            )


class TestMetricsHelpers:
    def test_relative_rms_zero_reference(self):
        assert relative_rms(4.0, 0.0) == 0.0

    def test_relative_rms(self):
        assert relative_rms(4.0, 16.0) == pytest.approx(0.5)

    def test_output_metrics_identical_logits(self):
        logits = np.array([[1.0, 2.0], [3.0, 1.0]])
        labels = np.array([1, 0])
        metrics = output_metrics(logits, logits.copy(), labels)
        assert metrics["accuracy"] == 1.0
        assert metrics["mismatch_rate"] == 0.0
        assert metrics["logit_rms_error"] == 0.0

    def test_lockstep_trace_depth_mismatch(self):
        a = Simulator.from_workload("mlp", seed=0, deploy=False).network
        b = Simulator.from_workload("mlp", seed=0, deploy=False).network
        b.layers.pop()
        inputs = np.zeros((2, 64))
        with pytest.raises(ValueError):
            lockstep_trace(record_reference(a, inputs), b)

    def test_lockstep_trace_identical_networks(self):
        sim = Simulator.from_workload("mlp", seed=1, deploy=False)
        inputs, _ = sim.make_inputs(8)
        reference = record_reference(sim.network, inputs, batch=4)
        faulty, records = lockstep_trace(reference, sim.network)
        np.testing.assert_array_equal(reference.logits, faulty)
        assert all(r["output_rms_error"] == 0.0 for r in records)

    def test_reference_forward_is_pinned(self):
        """Trained weights and baseline logits of a small ``mnist_cnn``
        reference: any change to the float path's arithmetic moves it."""
        context = _build_reference("mnist_cnn", 3, 16, 8, 1, 64, None)
        digest = hashlib.sha256()
        for parameter in context.reference.network.parameters():
            digest.update(parameter.value.tobytes())
        digest.update(context.trace.logits.tobytes())
        assert digest.hexdigest() == (
            "d1899ce4da28059bf1fe1f487ccb0ef3b7e01db6ceab918618fd9f4d31204d96"
        )


class TestBackendMismatchError:
    def test_is_assertion_error(self):
        assert issubclass(BackendMismatchError, AssertionError)
