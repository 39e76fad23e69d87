"""Tests for the device model, I&F ADC, and input drivers."""

import numpy as np
import pytest

from repro.xbar.adc import ADCConfig, quantize_levels
from repro.xbar.dac import (
    AnalogDAC,
    InputEncoding,
    SpikeCoder,
    quantize_activations,
)
from repro.xbar.device import (
    NOISY_DEVICE,
    PIPELAYER_DEVICE,
    DeviceConfig,
    DeviceModel,
)


class TestDeviceConfig:
    def test_default_window(self):
        device = DeviceConfig()
        assert device.g_min == pytest.approx(1e-6)
        assert device.g_max == pytest.approx(1e-4)

    def test_levels_from_bits(self):
        assert DeviceConfig(cell_bits=4).levels == 16
        assert DeviceConfig(cell_bits=1).levels == 2

    def test_g_step_spans_window(self):
        device = DeviceConfig(cell_bits=2)
        assert device.g_min + 3 * device.g_step == pytest.approx(device.g_max)

    def test_rejects_inverted_resistances(self):
        with pytest.raises(ValueError):
            DeviceConfig(r_on=1e6, r_off=1e4)

    def test_rejects_stuck_rates_over_one(self):
        with pytest.raises(ValueError):
            DeviceConfig(stuck_off_rate=0.6, stuck_on_rate=0.6)

    @pytest.mark.parametrize(
        "field",
        [
            "read_noise",
            "drift_nu",
            "program_noise",
            "upset_magnitude",
            "wire_resistance",
        ],
    )
    def test_rejects_nan_settings(self, field):
        # NaN fails every comparison, so a ``value < 0`` test let it
        # through as a setting that turns the path on but applies
        # nothing (``nan > 0.0`` is False).
        with pytest.raises(ValueError, match=field):
            DeviceConfig(**{field: float("nan")})

    def test_ideal_strips_noise(self):
        ideal = NOISY_DEVICE.ideal()
        assert ideal.program_noise == 0.0
        assert ideal.read_noise == 0.0
        assert ideal.stuck_off_rate == 0.0


class TestDeviceModel:
    def test_ideal_programming_is_exact(self):
        model = DeviceModel(PIPELAYER_DEVICE, rng=0)
        levels = np.arange(16).reshape(4, 4)
        conductance = model.program(levels)
        back = (conductance - PIPELAYER_DEVICE.g_min) / PIPELAYER_DEVICE.g_step
        np.testing.assert_allclose(back, levels, atol=1e-9)

    def test_programming_noise_perturbs(self):
        device = DeviceConfig(program_noise=0.1)
        model = DeviceModel(device, rng=1)
        levels = np.full((8, 8), 7)
        conductance = model.program(levels)
        back = (conductance - device.g_min) / device.g_step
        assert np.std(back) > 0.01

    def test_programming_noise_zero_mean_ish(self):
        device = DeviceConfig(program_noise=0.05)
        model = DeviceModel(device, rng=2)
        levels = np.full((64, 64), 8)
        back = (model.program(levels) - device.g_min) / device.g_step
        assert np.mean(back) == pytest.approx(8.0, rel=0.02)

    def test_conductance_clipped_to_window(self):
        device = DeviceConfig(program_noise=1.0)
        model = DeviceModel(device, rng=3)
        conductance = model.program(np.full((32, 32), device.levels - 1))
        assert np.all(conductance <= device.g_max)
        assert np.all(conductance >= device.g_min)

    def test_rejects_out_of_range_levels(self):
        model = DeviceModel(PIPELAYER_DEVICE, rng=0)
        with pytest.raises(ValueError):
            model.program(np.array([[16]]))
        with pytest.raises(ValueError):
            model.program(np.array([[-1]]))

    def test_stuck_faults_rate(self):
        device = DeviceConfig(stuck_off_rate=0.2, stuck_on_rate=0.1)
        model = DeviceModel(device, rng=4)
        levels = np.full((200, 200), 8)
        out = model.apply_stuck_faults(levels)
        stuck_off = np.mean(out == 0)
        stuck_on = np.mean(out == device.levels - 1)
        assert stuck_off == pytest.approx(0.2, abs=0.02)
        assert stuck_on == pytest.approx(0.1, abs=0.02)

    def test_read_noise_zero_when_disabled(self):
        model = DeviceModel(PIPELAYER_DEVICE, rng=0)
        np.testing.assert_array_equal(
            model.read_noise_levels((3, 3)), np.zeros((3, 3))
        )

    def test_read_noise_scale_in_level_units(self):
        device = DeviceConfig(read_noise=0.7)
        model = DeviceModel(device, rng=5)
        noise = model.read_noise_levels((10000,))
        assert np.std(noise) == pytest.approx(0.7, rel=0.05)

    def test_read_noise_accumulates_over_reads(self):
        device = DeviceConfig(read_noise=1.0)
        model = DeviceModel(device, rng=6)
        noise = model.read_noise_levels((10000,), reads=4)
        assert np.std(noise) == pytest.approx(2.0, rel=0.05)


class TestStuckFaultPersistence:
    """Fault placement is a property of the array, not of one write."""

    def test_mask_persists_across_reprograms(self):
        device = DeviceConfig(stuck_off_rate=0.1, stuck_on_rate=0.1)
        model = DeviceModel(device, rng=2)
        first = model.apply_stuck_faults(np.full((50, 50), 7))
        second = model.apply_stuck_faults(np.full((50, 50), 3))
        np.testing.assert_array_equal(first == 0, second == 0)
        np.testing.assert_array_equal(
            first == device.levels - 1, second == device.levels - 1
        )

    def test_mask_persists_through_program_levels(self):
        device = DeviceConfig(stuck_off_rate=0.15)
        model = DeviceModel(device, rng=3)
        first = model.program_levels(np.full((40, 40), 5))
        second = model.program_levels(np.full((40, 40), 9))
        np.testing.assert_array_equal(first == 0, second == 0)

    def test_shape_change_raises_instead_of_redrawing(self):
        # Regression: a reprogram at a different shape used to redraw
        # the mask silently — physical defects cannot move.
        device = DeviceConfig(stuck_off_rate=0.1)
        model = DeviceModel(device, rng=4)
        model.apply_stuck_faults(np.full((20, 20), 6))
        with pytest.raises(ValueError, match="shape"):
            model.apply_stuck_faults(np.full((10, 20), 6))

    def test_nested_masks_across_rates(self):
        # The cells broken at a low rate are a subset of those broken
        # at a higher rate under the same seed (same fault stream).
        low = DeviceModel(DeviceConfig(stuck_off_rate=0.05), rng=9)
        high = DeviceModel(DeviceConfig(stuck_off_rate=0.25), rng=9)
        levels = np.full((100, 100), 8)
        low_mask = low.apply_stuck_faults(levels) == 0
        high_mask = high.apply_stuck_faults(levels) == 0
        assert np.all(high_mask[low_mask])

    def test_fault_census_counts(self):
        device = DeviceConfig(stuck_off_rate=0.2, stuck_on_rate=0.1)
        model = DeviceModel(device, rng=4)
        assert model.fault_census() == {
            "cells": 0,
            "stuck_off": 0,
            "stuck_on": 0,
        }
        out = model.apply_stuck_faults(np.full((60, 60), 8))
        census = model.fault_census()
        assert census["cells"] == 3600
        assert census["stuck_off"] == int(np.count_nonzero(out == 0))
        assert census["stuck_on"] == int(
            np.count_nonzero(out == device.levels - 1)
        )


def dense_upsets(model, shape):
    """The model's next upsets scattered into a dense impulse array."""
    positions, amplitudes = model.transient_upset_levels(shape)
    impulses = np.zeros(shape)
    impulses.flat[positions] = amplitudes
    return impulses


class TestTransientFaults:
    def test_upsets_zero_when_disabled(self):
        model = DeviceModel(PIPELAYER_DEVICE, rng=0)
        positions, amplitudes = model.transient_upset_levels((4, 4))
        assert positions.size == 0 and amplitudes.size == 0

    def test_upset_rate_and_amplitude_bound(self):
        device = DeviceConfig(upset_rate=0.05, upset_magnitude=3.0)
        model = DeviceModel(device, rng=1)
        impulses = dense_upsets(model, (400, 400))
        rate = np.mean(impulses != 0.0)
        assert rate == pytest.approx(0.05, abs=0.005)
        assert np.max(np.abs(impulses)) <= 3.0

    def test_upset_magnitude_defaults_to_full_cell(self):
        device = DeviceConfig(upset_rate=1.0, cell_bits=4)
        assert device.upset_levels == 15.0

    def test_upsets_are_fresh_per_read(self):
        device = DeviceConfig(upset_rate=0.5)
        model = DeviceModel(device, rng=2)
        first = dense_upsets(model, (30, 30))
        second = dense_upsets(model, (30, 30))
        assert not np.array_equal(first, second)

    def test_drift_decays_with_read_events(self):
        device = DeviceConfig(drift_nu=0.1)
        model = DeviceModel(device, rng=0)
        factors = model.drift_factors(4)
        np.testing.assert_allclose(
            factors, (1.0 + np.arange(4)) ** -0.1
        )
        # The clock keeps counting across calls.
        np.testing.assert_allclose(
            model.drift_factors(2), (1.0 + np.array([4.0, 5.0])) ** -0.1
        )

    def test_program_resets_drift_clock(self):
        device = DeviceConfig(drift_nu=0.2)
        model = DeviceModel(device, rng=0)
        model.drift_factors(5)
        model.program_levels(np.full((4, 4), 3))
        assert model.read_events == 0
        assert model.drift_factors(1)[0] == 1.0

    def test_drift_disabled_still_advances_clock(self):
        model = DeviceModel(PIPELAYER_DEVICE, rng=0)
        np.testing.assert_array_equal(model.drift_factors(3), np.ones(3))
        assert model.read_events == 3

    def test_has_transient_faults_property(self):
        assert not PIPELAYER_DEVICE.has_transient_faults
        assert DeviceConfig(upset_rate=0.01).has_transient_faults
        assert DeviceConfig(drift_nu=0.05).has_transient_faults

    def test_effects_draw_from_independent_streams(self):
        # Enabling upsets must not shift read-noise draws: the streams
        # are per-effect children of the same seed.
        quiet = DeviceModel(DeviceConfig(read_noise=0.3), rng=7)
        busy = DeviceModel(
            DeviceConfig(read_noise=0.3, upset_rate=0.2), rng=7
        )
        busy.transient_upset_levels((8, 8))
        np.testing.assert_array_equal(
            quiet.read_noise_levels((16,)), busy.read_noise_levels((16,))
        )


class TestADC:
    def test_lossless_for_integers(self):
        config = ADCConfig.lossless_for(128, 16)
        values = np.arange(0, 128 * 15 + 1, 7, dtype=float)
        np.testing.assert_array_equal(quantize_levels(values, config), values)

    def test_lossless_config_unit_grid(self):
        config = ADCConfig.lossless_for(128, 16)
        assert config.levels_per_count == 1.0
        assert config.max_count >= 128 * 15

    def test_saturates_at_full_scale(self):
        config = ADCConfig(bits=4, full_scale_levels=15.0)
        assert quantize_levels(np.array([100.0]), config)[0] == 15.0

    def test_clips_negative_to_zero(self):
        config = ADCConfig(bits=4, full_scale_levels=15.0)
        assert quantize_levels(np.array([-3.0]), config)[0] == 0.0

    def test_quantization_step(self):
        config = ADCConfig(bits=2, full_scale_levels=30.0)
        # 3 counts over 30 levels -> step 10.
        np.testing.assert_array_equal(
            quantize_levels(np.array([4.0, 6.0, 14.0]), config),
            [0.0, 10.0, 10.0],
        )

    def test_counts_are_integers(self):
        # Outputs sit on the spike-count grid, saturating at max_count.
        config = ADCConfig(bits=6, full_scale_levels=100.0)
        levels = quantize_levels(np.array([0.0, 50.0, 100.0]), config)
        counts = levels / config.levels_per_count
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)
        assert round(counts[2]) == config.max_count


class TestSpikeCoder:
    def test_decompose_recompose_identity(self, rng):
        coder = SpikeCoder(InputEncoding(bits=8))
        integers = rng.integers(0, 256, size=(5, 7))
        planes = coder.decompose(integers)
        assert len(planes) == 8
        recombined = coder.accumulate(planes)
        np.testing.assert_array_equal(recombined, integers)

    def test_planes_are_binary(self, rng):
        coder = SpikeCoder(InputEncoding(bits=4))
        planes = coder.decompose(rng.integers(0, 16, size=20))
        for plane in planes:
            assert set(np.unique(plane)).issubset({0.0, 1.0})

    def test_lsb_first(self):
        coder = SpikeCoder(InputEncoding(bits=3))
        planes = coder.decompose(np.array([5]))  # 0b101
        assert [p[0] for p in planes] == [1.0, 0.0, 1.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SpikeCoder(InputEncoding(bits=4)).decompose(np.array([-1]))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            SpikeCoder(InputEncoding(bits=4)).decompose(np.array([16]))

    def test_accumulate_wrong_count(self):
        coder = SpikeCoder(InputEncoding(bits=4))
        with pytest.raises(ValueError):
            coder.accumulate([np.zeros(3)] * 3)

    def test_subcycles(self):
        assert SpikeCoder(InputEncoding(bits=6)).subcycles == 6
        assert AnalogDAC(InputEncoding(bits=6)).subcycles == 1


class TestAnalogDAC:
    def test_drive_passes_values(self):
        dac = AnalogDAC(InputEncoding(bits=4))
        np.testing.assert_array_equal(
            dac.decompose(np.array([0, 7, 15])), [[0.0, 7.0, 15.0]]
        )

    def test_rejects_out_of_range(self):
        dac = AnalogDAC(InputEncoding(bits=4))
        with pytest.raises(ValueError):
            dac.decompose(np.array([16]))


class TestQuantizeActivations:
    def test_round_trip(self, rng):
        encoding = InputEncoding(bits=8)
        values = rng.normal(size=(4, 6))
        pos, neg, scale = quantize_activations(values, encoding, 3.0)
        reconstructed = (pos - neg) * scale
        np.testing.assert_allclose(reconstructed, values, atol=scale / 2 + 1e-12)

    def test_sign_split_disjoint(self, rng):
        pos, neg, _ = quantize_activations(
            rng.normal(size=100), InputEncoding(bits=6), 2.0
        )
        assert np.all((pos == 0) | (neg == 0))

    def test_clipping_at_max_abs(self):
        encoding = InputEncoding(bits=4)
        pos, neg, scale = quantize_activations(
            np.array([100.0, -100.0]), encoding, 1.0
        )
        assert pos[0] == encoding.max_int
        assert neg[1] == encoding.max_int

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            quantize_activations(np.zeros(3), InputEncoding(bits=4), 0.0)


class TestRateCoder:
    def test_round_trip(self, rng):
        from repro.xbar.dac import RateCoder

        coder = RateCoder(InputEncoding(bits=4))
        integers = rng.integers(0, 16, size=(4, 5))
        planes = coder.decompose(integers)
        assert len(planes) == 15  # 2**4 - 1 sub-cycles
        np.testing.assert_array_equal(coder.accumulate(planes), integers)

    def test_planes_are_binary_and_monotone(self, rng):
        from repro.xbar.dac import RateCoder

        coder = RateCoder(InputEncoding(bits=3))
        planes = coder.decompose(rng.integers(0, 8, size=20))
        for plane in planes:
            assert set(np.unique(plane)).issubset({0.0, 1.0})
        # Thermometer property: later planes are subsets of earlier ones.
        for earlier, later in zip(planes, planes[1:]):
            assert np.all(later <= earlier)

    def test_exponentially_more_subcycles_than_weighted(self):
        from repro.xbar.dac import RateCoder

        for bits in (2, 4, 8):
            encoding = InputEncoding(bits=bits)
            assert RateCoder(encoding).subcycles == 2**bits - 1
            assert SpikeCoder(encoding).subcycles == bits

    def test_rejects_out_of_range(self):
        from repro.xbar.dac import RateCoder

        coder = RateCoder(InputEncoding(bits=3))
        with pytest.raises(ValueError):
            coder.decompose(np.array([8]))
        with pytest.raises(ValueError):
            coder.decompose(np.array([-1]))


class TestRateModeEngine:
    def test_rate_mode_matches_spike_mode(self, rng):
        from repro.xbar import CrossbarEngine, CrossbarEngineConfig

        weights = rng.normal(size=(20, 12))
        activations = rng.normal(size=(3, 20))
        outputs = {}
        stats = {}
        for mode in ("spike", "rate"):
            engine = CrossbarEngine(
                CrossbarEngineConfig(
                    array_rows=16, array_cols=16, fast_ideal=False,
                    encoding=InputEncoding(bits=4), input_mode=mode,
                ),
                rng=0,
            )
            engine.prepare(weights)
            outputs[mode] = engine.matmul(activations)
            stats[mode] = engine.telemetry.get("subcycles")
        np.testing.assert_allclose(
            outputs["rate"], outputs["spike"], atol=1e-9
        )
        # The paper's claim, measured: weighted coding needs b passes
        # per sign stream, rate coding 2**b - 1.
        assert stats["rate"] > 3 * stats["spike"]
