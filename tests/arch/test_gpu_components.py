"""Tests for the GPU roofline model and component cost helpers."""

import pytest

from repro.arch.components import (
    EnergyBreakdown,
    array_subcycle_energy,
    buffer_transfer_energy,
    chip_area_mm2,
    static_power,
    weight_write_energy,
)
from repro.arch.gpu import GpuModel
from repro.arch.params import DEFAULT_TECH, GTX1080, GpuParams, XbarTechParams
from repro.workloads import alexnet_spec, conv, fc, mnist_cnn_spec
from repro.workloads.suite import NetworkSpec


class TestGpuParams:
    def test_gtx1080_constants(self):
        assert GTX1080.peak_flops == pytest.approx(8.873e12)
        assert GTX1080.memory_bandwidth == pytest.approx(320e9)
        assert GTX1080.board_power == 180.0

    def test_utilization_dispatch(self):
        assert GTX1080.utilization_for("conv") == GTX1080.conv_utilization
        assert GTX1080.utilization_for("fcnn") == GTX1080.conv_utilization
        assert GTX1080.utilization_for("fc") == GTX1080.fc_utilization
        assert GTX1080.utilization_for("pool") == GTX1080.pool_utilization

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            GpuParams(conv_utilization=0.0)
        with pytest.raises(ValueError):
            GpuParams(fc_utilization=1.5)


class TestGpuModel:
    def test_conv_layer_is_compute_bound(self):
        model = GpuModel()
        layer = conv(128, 114, 256, 3)  # Fig. 4's heavy convolution
        timing = model.layer_timing(layer, batch=32)
        assert timing.bound == "compute"

    def test_big_fc_layer_is_memory_bound(self):
        model = GpuModel()
        timing = model.layer_timing(fc(9216, 4096), batch=1)
        assert timing.bound == "memory"

    def test_compute_time_matches_roofline(self):
        model = GpuModel()
        layer = conv(128, 114, 256, 3)
        timing = model.layer_timing(layer, batch=1)
        expected = layer.flops / (
            GTX1080.peak_flops * GTX1080.conv_utilization
        )
        assert timing.compute_time == pytest.approx(expected)

    def test_training_costs_more_than_inference(self):
        model = GpuModel()
        net = mnist_cnn_spec()
        assert model.network_time(net, 32, training=True) > model.network_time(
            net, 32, training=False
        )

    def test_batching_amortises_weights(self):
        """Per-image time shrinks with batch for weight-heavy layers."""
        model = GpuModel()
        net = NetworkSpec("fc_net", (fc(4096, 4096),), (4096, 1, 1))
        per_image_small = model.time_per_image(net, 1)
        per_image_large = model.time_per_image(net, 64)
        assert per_image_large < per_image_small

    def test_energy_is_power_times_time(self):
        model = GpuModel()
        net = mnist_cnn_spec()
        time = model.time_per_image(net, 16, training=True)
        assert model.energy_per_image(net, 16, training=True) == pytest.approx(
            time * 180.0
        )

    def test_alexnet_time_plausible(self):
        """AlexNet fwd+bwd on a GTX 1080 lands in the 0.5-5 ms/image
        range (published cuDNN numbers are ~1-3 ms at small batch)."""
        model = GpuModel()
        t = model.time_per_image(alexnet_spec(), 32, training=True)
        assert 0.5e-3 < t < 5e-3

    def test_gan_iteration_longer_than_three_phases_of_d(self):
        model = GpuModel()
        from repro.workloads import dcgan_spec

        generator, discriminator = dcgan_spec(32, 3)
        iteration = model.gan_iteration_time(generator, discriminator, 32)
        d_only = model.network_time(discriminator, 32, training=True)
        assert iteration > 3 * d_only

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            GpuModel().layer_timing(fc(10, 10), batch=0)


class TestComponents:
    def test_subcycle_energy_adc_dominates(self):
        """At ISAAC-like constants the ADC is the dominant term."""
        total = array_subcycle_energy(DEFAULT_TECH, 128, 128)
        adc = 128 * DEFAULT_TECH.adc_energy_per_conversion
        assert adc / total > 0.5

    def test_subcycle_energy_scales_with_cols(self):
        assert array_subcycle_energy(DEFAULT_TECH, 128, 256) > (
            array_subcycle_energy(DEFAULT_TECH, 128, 128)
        )

    def test_weight_write_energy_linear(self):
        assert weight_write_energy(DEFAULT_TECH, 100) == pytest.approx(
            100 * DEFAULT_TECH.cell_write_energy
        )

    def test_buffer_energy(self):
        assert buffer_transfer_energy(DEFAULT_TECH, 8) == pytest.approx(
            8 * DEFAULT_TECH.buffer_energy_per_bit
        )

    def test_static_power_includes_controller(self):
        assert static_power(DEFAULT_TECH, 0) == pytest.approx(
            DEFAULT_TECH.controller_static_power
        )

    def test_chip_area(self):
        assert chip_area_mm2(DEFAULT_TECH, 1000) == pytest.approx(
            1000 * DEFAULT_TECH.array_area_mm2
        )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            weight_write_energy(DEFAULT_TECH, -1)


class TestEnergyBreakdown:
    def test_total_sums_categories(self):
        breakdown = EnergyBreakdown(mvm=1.0, buffer=2.0, weight_write=3.0,
                                    static=4.0)
        assert breakdown.total == 10.0
        assert breakdown.dynamic == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(mvm=-1.0)


class TestTechParams:
    def test_scaled_override(self):
        tech = DEFAULT_TECH.scaled(subcycle_time=50e-9)
        assert tech.subcycle_time == 50e-9
        assert tech.array_read_energy == DEFAULT_TECH.array_read_energy

    def test_rejects_non_positive_core_params(self):
        with pytest.raises(ValueError):
            XbarTechParams(subcycle_time=0.0)
        with pytest.raises(ValueError):
            XbarTechParams(cell_write_energy=-1.0)
