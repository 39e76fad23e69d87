"""Tests for the IR-drop model and the linear (effective-matrix) path."""

import numpy as np
import pytest

from repro.xbar import (
    CrossbarEngine,
    CrossbarEngineConfig,
    DeviceConfig,
    apply_ir_drop,
)
from repro.xbar.crossbar import CrossbarArray


class TestApplyIrDrop:
    def test_zero_resistance_is_identity(self, rng):
        conductance = rng.uniform(1e-6, 1e-4, size=(8, 8))
        out = apply_ir_drop(conductance, 0.0)
        np.testing.assert_array_equal(out, conductance)

    def test_always_reduces(self, rng):
        conductance = rng.uniform(1e-6, 1e-4, size=(16, 16))
        out = apply_ir_drop(conductance, 10.0)
        assert np.all(out <= conductance)
        assert np.any(out < conductance)

    def test_corner_cell_unaffected(self, rng):
        conductance = rng.uniform(1e-6, 1e-4, size=(4, 4))
        out = apply_ir_drop(conductance, 100.0)
        assert out[0, 0] == conductance[0, 0]  # distance 0

    def test_degradation_grows_with_distance(self):
        conductance = np.full((32, 32), 1e-4)
        out = apply_ir_drop(conductance, 10.0)
        # Same nominal conductance: the far corner loses the most.
        assert out[31, 31] < out[0, 31] < out[0, 0]
        assert out[31, 31] < out[31, 0] < out[0, 0]

    def test_monotone_in_resistance(self):
        conductance = np.full((16, 16), 1e-4)
        mild = apply_ir_drop(conductance, 1.0)
        harsh = apply_ir_drop(conductance, 100.0)
        assert np.all(harsh <= mild)

    def test_rejects_negative_resistance(self, rng):
        with pytest.raises(ValueError):
            apply_ir_drop(rng.uniform(size=(2, 2)), -1.0)


class TestIrDropInArray:
    def test_large_array_loses_accuracy(self, rng):
        """IR drop makes big-array MVM under-read far cells."""
        device = DeviceConfig(wire_resistance=5.0)
        array = CrossbarArray(64, 64, device, rng=0)
        levels = rng.integers(8, 16, size=(64, 64))
        array.program(levels)
        drive = np.ones((1, 64))
        out = array.mvm(drive)
        exact = drive @ levels
        assert np.all(out <= exact + 1e-9)
        assert np.mean(exact - out) > 1.0  # visible systematic loss

    def test_far_columns_hit_harder(self, rng):
        device = DeviceConfig(wire_resistance=5.0)
        array = CrossbarArray(64, 64, device, rng=0)
        levels = np.full((64, 64), 10)
        array.program(levels)
        out = array.mvm(np.ones((1, 64)))[0]
        assert out[-1] < out[0]

    def test_engine_not_ideal_with_ir_drop(self):
        config = CrossbarEngineConfig(
            device=DeviceConfig(wire_resistance=1.0)
        )
        assert not config.is_ideal

    def test_smaller_arrays_suffer_less(self, rng):
        """The classic mitigation: shorter wires.  Fidelity at a fixed
        wire resistance improves as the array shrinks."""
        weights = rng.normal(size=(128, 32))
        activations = rng.normal(size=(4, 128))
        exact = activations @ weights
        errors = {}
        for array_size in (32, 128):
            config = CrossbarEngineConfig(
                array_rows=array_size,
                array_cols=array_size,
                device=DeviceConfig(wire_resistance=2.0),
                fast_ideal=False,
            )
            engine = CrossbarEngine(config, rng=0)
            engine.prepare(weights)
            out = engine.matmul(activations)
            errors[array_size] = float(np.mean(np.abs(out - exact)))
        assert errors[32] < errors[128]


class TestLinearFastPath:
    def test_opt_in_only(self, rng):
        device = DeviceConfig(program_noise=0.05)
        weights = rng.normal(size=(20, 10))
        default = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16, device=device),
            rng=0,
        )
        default.prepare(weights)
        default.matmul(rng.normal(size=(2, 20)))
        # stays on the full path
        assert default.telemetry.get("fast_ideal_calls") == 0

    def test_linear_path_close_to_full_path(self, rng):
        device = DeviceConfig(program_noise=0.05)
        weights = rng.normal(size=(40, 24))
        activations = rng.normal(size=(4, 40))
        full = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, device=device,
                fast_ideal=False,
            ),
            rng=3,
        )
        full.prepare(weights)
        linear = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, device=device,
                fast_linear=True,
            ),
            rng=3,
        )
        linear.prepare(weights)
        out_full = full.matmul(activations)
        out_linear = linear.matmul(activations)
        # Same programmed arrays (same seed); they differ only by the
        # ADC's per-read rounding of fractional partial sums.
        rel = np.max(np.abs(out_full - out_linear)) / np.max(
            np.abs(out_full)
        )
        assert rel < 0.15
        assert linear.telemetry.get("fast_ideal_calls") == 1

    def test_linear_path_not_used_with_read_noise(self, rng):
        device = DeviceConfig(read_noise=0.5)
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, device=device,
                fast_linear=True,
            ),
            rng=0,
        )
        engine.prepare(rng.normal(size=(8, 4)))
        engine.matmul(rng.normal(size=(2, 8)))
        assert engine.telemetry.get("fast_ideal_calls") == 0

    def test_effective_weights_reflect_noise(self, rng):
        device = DeviceConfig(program_noise=0.05)
        weights = rng.normal(size=(20, 10))
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16, device=device),
            rng=1,
        )
        engine.prepare(weights)
        effective = engine.effective_weights()
        quantized = engine.quantized_weights()
        assert not np.allclose(effective, quantized)
        # But they agree in the aggregate (noise is ~zero-mean).
        assert np.mean(np.abs(effective - quantized)) < 0.2 * np.std(weights)

    def test_effective_equals_quantized_when_ideal(self, rng):
        weights = rng.normal(size=(20, 10))
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16), rng=1
        )
        engine.prepare(weights)
        np.testing.assert_allclose(
            engine.effective_weights(), engine.quantized_weights(), atol=1e-9
        )
