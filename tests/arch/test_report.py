"""Tests for area/power reporting."""

import pytest

from repro.arch.report import (
    GTX1080_DIE_MM2,
    AreaPowerReport,
    pipelayer_report,
)
from repro.core import PipeLayerModel
from repro.workloads import alexnet_spec, mnist_cnn_spec


class TestPipeLayerReport:
    def test_area_scales_with_arrays(self):
        small = pipelayer_report(
            PipeLayerModel(mnist_cnn_spec(), array_budget=4096)
        )
        large = pipelayer_report(
            PipeLayerModel(mnist_cnn_spec(), array_budget=65536)
        )
        assert large.array_count >= small.array_count
        assert large.total_area_mm2 >= small.total_area_mm2

    def test_area_consistent_with_count(self):
        model = PipeLayerModel(mnist_cnn_spec(), array_budget=8192)
        report = pipelayer_report(model)
        assert report.compute_area_mm2 == pytest.approx(
            report.array_count * model.tech.array_area_mm2
        )
        assert report.memory_area_mm2 == pytest.approx(
            0.5 * report.compute_area_mm2
        )

    def test_power_positive_and_split(self):
        report = pipelayer_report(
            PipeLayerModel(alexnet_spec(), array_budget=131072)
        )
        assert report.static_power_w > 0
        assert report.dynamic_power_w > 0
        assert report.total_power_w == pytest.approx(
            report.static_power_w + report.dynamic_power_w
        )

    def test_inference_power_below_training(self):
        model = PipeLayerModel(alexnet_spec(), array_budget=131072)
        training = pipelayer_report(model, training=True)
        inference = pipelayer_report(model, training=False)
        assert inference.dynamic_power_w < training.dynamic_power_w

    def test_area_vs_gpu_reference(self):
        report = AreaPowerReport(
            name="x", array_count=1,
            compute_area_mm2=GTX1080_DIE_MM2, memory_area_mm2=0.0,
            static_power_w=1.0, dynamic_power_w=1.0,
        )
        assert report.area_vs_gpu == pytest.approx(1.0)

    def test_summary_renders(self):
        report = pipelayer_report(
            PipeLayerModel(mnist_cnn_spec(), array_budget=8192)
        )
        assert "arrays" in report.summary()
        assert "W" in report.summary()
