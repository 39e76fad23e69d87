"""Tests for the end-to-end crossbar matmul engine."""

import numpy as np
import pytest

from repro.xbar.device import DeviceConfig, NOISY_DEVICE
from repro.xbar.engine import (
    CrossbarEngine,
    CrossbarEngineConfig,
    weights_hash,
)
from repro.xbar.mapping import WeightMapping


def small_config(**overrides):
    defaults = dict(array_rows=16, array_cols=16)
    defaults.update(overrides)
    return CrossbarEngineConfig(**defaults)


class TestIdealEquivalence:
    def test_fast_ideal_equals_full_path(self, rng):
        """The fast integer shortcut must equal the bit-serial pipeline."""
        weights = rng.normal(size=(40, 24))
        activations = rng.normal(size=(5, 40))
        fast = CrossbarEngine(small_config(fast_ideal=True), rng=0)
        fast.prepare(weights)
        full = CrossbarEngine(small_config(fast_ideal=False), rng=0)
        full.prepare(weights)
        np.testing.assert_allclose(
            fast.matmul(activations), full.matmul(activations), atol=1e-9
        )
        assert fast.telemetry.get("fast_ideal_calls") == 1
        assert full.telemetry.get("fast_ideal_calls") == 0

    def test_close_to_exact_matmul(self, rng):
        weights = rng.normal(size=(40, 24))
        activations = rng.normal(size=(5, 40))
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(weights)
        out = engine.matmul(activations)
        exact = activations @ weights
        rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
        assert rel < 0.01  # 16-bit weights + 8-bit activations

    def test_offset_scheme_matches_differential(self, rng):
        weights = rng.normal(size=(30, 20))
        activations = rng.normal(size=(4, 30))
        diff = CrossbarEngine(small_config(fast_ideal=False), rng=0)
        diff.prepare(weights)
        offset = CrossbarEngine(
            small_config(
                fast_ideal=False,
                mapping=WeightMapping(scheme="offset"),
            ),
            rng=0,
        )
        offset.prepare(weights)
        np.testing.assert_allclose(
            diff.matmul(activations), offset.matmul(activations), atol=1e-9
        )

    def test_analog_mode_matches_spike_mode(self, rng):
        weights = rng.normal(size=(30, 20))
        activations = rng.normal(size=(4, 30))
        spike = CrossbarEngine(small_config(fast_ideal=False), rng=0)
        spike.prepare(weights)
        analog = CrossbarEngine(
            small_config(fast_ideal=False, input_mode="analog"), rng=0
        )
        analog.prepare(weights)
        np.testing.assert_allclose(
            spike.matmul(activations), analog.matmul(activations), atol=1e-9
        )

    def test_analog_mode_fewer_subcycles(self, rng):
        weights = rng.normal(size=(20, 10))
        activations = rng.normal(size=(2, 20))
        spike = CrossbarEngine(small_config(fast_ideal=False), rng=0)
        spike.prepare(weights)
        spike.matmul(activations)
        analog = CrossbarEngine(
            small_config(fast_ideal=False, input_mode="analog"), rng=0
        )
        analog.prepare(weights)
        analog.matmul(activations)
        assert analog.telemetry.get("subcycles") < spike.telemetry.get(
            "subcycles"
        )


class TestNonIdealities:
    def test_noisy_device_degrades(self, rng):
        weights = rng.normal(size=(32, 16))
        activations = rng.normal(size=(8, 32))
        exact = activations @ weights
        engine = CrossbarEngine(
            small_config(fast_ideal=False, device=NOISY_DEVICE), rng=1
        )
        engine.prepare(weights)
        error = np.mean(np.abs(engine.matmul(activations) - exact))
        clean = CrossbarEngine(small_config(fast_ideal=False), rng=1)
        clean.prepare(weights)
        clean_error = np.mean(np.abs(clean.matmul(activations) - exact))
        assert error > clean_error

    def test_noise_monotone_in_read_noise(self, rng):
        weights = rng.normal(size=(32, 16))
        activations = rng.normal(size=(8, 32))
        exact = activations @ weights
        errors = []
        for read_noise in (0.0, 0.3, 1.0):
            device = DeviceConfig(read_noise=read_noise)
            engine = CrossbarEngine(
                small_config(fast_ideal=False, device=device), rng=2
            )
            engine.prepare(weights)
            errors.append(
                float(np.mean(np.abs(engine.matmul(activations) - exact)))
            )
        assert errors[0] < errors[1] < errors[2]

    def test_low_adc_bits_saturate(self, rng):
        weights = np.abs(rng.normal(size=(64, 8))) + 0.5  # all positive
        activations = np.abs(rng.normal(size=(2, 64))) + 0.5
        exact = activations @ weights
        engine = CrossbarEngine(
            small_config(array_rows=64, array_cols=16,
                         fast_ideal=False, adc_bits=3),
            rng=0,
        )
        engine.prepare(weights)
        out = engine.matmul(activations)
        rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
        assert rel > 0.01  # visibly lossy

    def test_is_ideal_flag(self):
        assert small_config().is_ideal
        assert not small_config(device=NOISY_DEVICE).is_ideal
        assert not small_config(adc_bits=4).is_ideal
        stuck = DeviceConfig(stuck_off_rate=0.01)
        assert not small_config(device=stuck).is_ideal


class TestEngineMechanics:
    def test_prepare_caches_same_weights(self, rng):
        weights = rng.normal(size=(20, 10))
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(weights)
        programs = engine.telemetry.get("array_programs")
        engine.prepare(weights.copy())
        assert engine.telemetry.get("array_programs") == programs

    def test_prepare_reprograms_new_weights(self, rng):
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(rng.normal(size=(20, 10)))
        programs = engine.telemetry.get("array_programs")
        engine.prepare(rng.normal(size=(20, 10)))
        assert engine.telemetry.get("array_programs") > programs

    @pytest.mark.parametrize(
        "edit",
        ["next_float", "negative_zero", "transposed_view"],
    )
    def test_prepare_skips_exactly_when_weights_hash_matches(
        self, edit, rng
    ):
        """The byte comparison makes the hash's decision: one changed
        element reprograms, ``-0.0`` differs from ``0.0``, and a
        transposed view matches its contiguous copy."""
        weights = rng.normal(size=(20, 10))
        weights[3, 4] = 0.0
        incoming = weights.copy()
        if edit == "next_float":
            incoming[7, 2] = np.nextafter(incoming[7, 2], np.inf)
        elif edit == "negative_zero":
            incoming[3, 4] = -0.0
        elif edit == "transposed_view":
            weights = np.ascontiguousarray(weights.T)
            incoming = incoming.T
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(weights)
        programs = engine.telemetry.get("array_programs")
        engine.prepare(incoming)
        same_hash = weights_hash(incoming) == weights_hash(weights)
        assert same_hash == (edit == "transposed_view")
        assert engine.telemetry.get("prepare.skips") == int(same_hash)
        reprogrammed = engine.telemetry.get("array_programs") > programs
        assert reprogrammed != same_hash

    def test_prepare_sees_in_place_updates(self, rng):
        """The kept copy is the engine's own: editing the caller's
        matrix in place and preparing it again reprograms."""
        weights = rng.normal(size=(20, 10))
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(weights)
        programs = engine.telemetry.get("array_programs")
        weights[0, 0] += 1.0
        engine.prepare(weights)
        assert engine.telemetry.get("array_programs") > programs

    def test_matmul_before_prepare_raises(self, rng):
        with pytest.raises(RuntimeError):
            CrossbarEngine(small_config()).matmul(rng.normal(size=(2, 4)))

    def test_width_mismatch_raises(self, rng):
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(rng.normal(size=(8, 4)))
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(2, 9)))

    def test_zero_activations_short_circuit(self, rng):
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(rng.normal(size=(8, 4)))
        out = engine.matmul(np.zeros((3, 8)))
        np.testing.assert_array_equal(out, 0.0)

    def test_quantized_weights_accessor(self, rng):
        weights = rng.normal(size=(12, 6))
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(weights)
        approx = engine.quantized_weights()
        assert np.max(np.abs(approx - weights)) < np.max(np.abs(weights)) / 1000

    def test_array_count_matches_geometry(self, rng):
        engine = CrossbarEngine(small_config(), rng=0)
        engine.prepare(rng.normal(size=(40, 24)))
        # grid 3x2 per slice plane, 4 slices, 2 signs.
        assert engine.array_count == 3 * 2 * 4 * 2

    def test_fixed_activation_range_clips(self, rng):
        engine = CrossbarEngine(
            small_config(activation_range=1.0), rng=0
        )
        weights = np.eye(4)
        engine.prepare(weights)
        out = engine.matmul(np.array([[5.0, -5.0, 0.5, 0.0]]))
        np.testing.assert_allclose(
            out[0], [1.0, -1.0, 0.5, 0.0], atol=0.01
        )
