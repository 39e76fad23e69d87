"""Tests for the PipeLayer and ReGAN accelerator models (Table I)."""

import pytest

from repro.arch.params import DEFAULT_TECH
from repro.core.estimator import (
    geometric_mean,
    pipelayer_table1,
    regan_table1,
)
from repro.core.pipelayer import PipeLayerModel
from repro.core.regan import ReGANModel
from repro.workloads import alexnet_spec, dcgan_spec, mnist_cnn_spec


class TestPipeLayerModel:
    def make(self, **overrides):
        defaults = dict(array_budget=131072)
        defaults.update(overrides)
        return PipeLayerModel(alexnet_spec(), **defaults)

    def test_cycle_time_is_worst_layer(self):
        model = self.make()
        worst = max(
            m.subcycles_per_image for m in model.mappings.values()
        )
        assert model.cycle_time == pytest.approx(
            worst * DEFAULT_TECH.subcycle_time
        )

    def test_training_arrays_double_forward(self):
        model = self.make()
        assert model.total_arrays == 2 * model.forward_arrays

    def test_inference_only_halves_arrays(self):
        train = self.make()
        infer = self.make(training_arrays=False)
        # Equal budgets: inference spends the whole budget on forward
        # copies, so its forward array count is at least the training
        # deployment's.
        assert infer.total_arrays == infer.forward_arrays
        assert infer.forward_arrays >= train.forward_arrays

    def test_training_time_follows_fig5_formula(self):
        model = self.make()
        batch, n_inputs = 32, 320
        depth = model.network.depth
        cycles = (n_inputs // batch) * (2 * depth + batch + 1)
        assert model.training_time_per_image(batch) * n_inputs == (
            pytest.approx(cycles * model.cycle_time)
        )

    def test_speedup_positive_and_large(self):
        report = self.make().report(batch=32, training=True)
        assert report.speedup > 10

    def test_energy_saving_below_speedup(self):
        """PipeLayer's signature: energy saving (7.17x) is far below
        speedup (42.45x) — the parallel arrays burn power."""
        report = self.make().report(batch=32, training=True)
        assert 1 < report.energy_saving < report.speedup

    def test_energy_breakdown_positive(self):
        energy = self.make().energy_per_image(batch=32, training=True)
        assert energy.mvm > 0
        assert energy.buffer > 0
        assert energy.weight_write > 0
        assert energy.static > 0

    def test_inference_energy_below_training(self):
        model = self.make()
        train = model.energy_per_image(32, training=True).total
        infer = model.energy_per_image(32, training=False).total
        assert infer < train

    def test_inference_has_no_weight_writes(self):
        energy = self.make().energy_per_image(32, training=False)
        assert energy.weight_write == 0.0

    def test_larger_budget_not_slower(self):
        small = PipeLayerModel(mnist_cnn_spec(), array_budget=2000)
        large = PipeLayerModel(mnist_cnn_spec(), array_budget=40000)
        assert large.cycle_time <= small.cycle_time

    def test_report_summary_renders(self):
        text = self.make().report(batch=32).summary()
        assert "speedup" in text and "mJ/img" in text

    def test_batch_one_pipeline_overhead(self):
        """At B=1 the training pipeline degenerates: per-image time is
        the full (2L + 2) sweep."""
        model = self.make()
        depth = model.network.depth
        per_image = model.training_time_per_image(1)
        assert per_image == pytest.approx(
            (2 * depth + 2) * model.cycle_time
        )


class TestReGANModel:
    def make(self, scheme="sp_cs", **overrides):
        generator, discriminator = dcgan_spec(32, 3)
        defaults = dict(array_budget=262144, scheme=scheme, dataset="cifar")
        defaults.update(overrides)
        return ReGANModel(generator, discriminator, **defaults)

    def test_scheme_cycle_ordering_preserved(self):
        cycles = {
            scheme: self.make(scheme=scheme).cycles_per_iteration(32)
            for scheme in ("unpipelined", "pipelined", "sp", "sp_cs")
        }
        assert (
            cycles["unpipelined"]
            >= cycles["pipelined"]
            >= cycles["sp"]
            >= cycles["sp_cs"]
        )

    def test_sp_duplicates_d_arrays(self):
        base = self.make(scheme="pipelined")
        spatial = self.make(scheme="sp")
        d_base = sum(m.total_arrays for m in base.d_mappings.values())
        d_sp = sum(m.total_arrays for m in spatial.d_mappings.values())
        # SP deploys two copies of (its possibly differently-budgeted) D.
        assert spatial.total_arrays >= base.total_arrays - (
            2 * (d_base - d_sp)
        )
        assert spatial.d_copies == 2

    def test_cs_shares_forward_energy(self):
        """CS removes one G forward and one D forward per element."""
        base = self.make(scheme="pipelined")
        shared = self.make(scheme="cs")
        g_base, d_base = base._work()[:2]
        g_shared, d_shared = shared._work()[:2]
        assert g_shared == g_base - 1
        assert d_shared == d_base - 1

    def test_speedup_large(self):
        report = self.make().report(batch=32)
        assert report.speedup > 10

    def test_energy_saving_below_speedup(self):
        report = self.make().report(batch=32)
        assert 1 < report.energy_saving < report.speedup

    def test_report_summary_renders(self):
        assert "speedup" in self.make().report(batch=32).summary()

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            self.make(scheme="warp")


class TestTableOne:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_pipelayer_row_in_paper_regime(self):
        """Shape check vs Table I: large double-digit speedup, energy
        saving positive but well below the speedup."""
        row = pipelayer_table1()
        assert 10 < row.speedup < 400
        assert 2 < row.energy_saving < 60
        assert row.energy_saving < row.speedup
        assert len(row.per_workload) == 3

    def test_regan_row_beats_pipelayer(self):
        """Table I ordering: ReGAN's benefit exceeds PipeLayer's."""
        pipelayer = pipelayer_table1()
        regan = regan_table1()
        assert regan.speedup > pipelayer.speedup
        assert regan.energy_saving > pipelayer.energy_saving

    def test_regan_row_in_paper_regime(self):
        row = regan_table1()
        assert 50 < row.speedup < 1200
        assert 2 < row.energy_saving < 300
        assert len(row.per_workload) == 4

    def test_row_summary_mentions_paper(self):
        text = pipelayer_table1().summary()
        assert "42.45" in text


class TestMeasuredTable1:
    """Counter-derived Table I vs the analytic estimator (the oracle)."""

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.core.estimator import measured_table1

        return measured_table1(batch=32)

    def test_counters_agree_with_analytic_exactly(self, measured):
        from repro.core.estimator import MEASURED_CONSISTENCY_RTOL

        assert measured["worst_consistency"] <= MEASURED_CONSISTENCY_RTOL
        for row in measured["rows"].values():
            for workload in row["workloads"].values():
                assert workload["measured_joules"] == pytest.approx(
                    workload["analytic_joules"], rel=1e-9
                )

    def test_geomeans_match_analytic(self, measured):
        for row in measured["rows"].values():
            assert row["energy_saving_geomean"] == pytest.approx(
                row["analytic_energy_saving_geomean"], rel=1e-9
            )

    def test_table1_orderings_hold(self, measured):
        pipelayer = measured["rows"]["PipeLayer"]
        regan = measured["rows"]["ReGAN"]
        assert pipelayer["energy_saving_geomean"] > 2
        assert regan["energy_saving_geomean"] > 5
        assert (
            regan["energy_saving_geomean"]
            > pipelayer["energy_saving_geomean"]
        )

    def test_counters_land_on_caller_collector(self):
        from repro.core.estimator import measured_table1
        from repro.telemetry import Collector

        collector = Collector(record_spans=False)
        measured_table1(batch=32, collector=collector)
        counters = collector.counters()
        assert any(
            path.startswith("table1/pipelayer[") for path in counters
        )
        assert any(
            path.startswith("table1/regan[") for path in counters
        )

    def test_document_and_counters_pinned(self):
        """Measured Table I is pinned byte for byte: a refactor of the
        models' work counts or of their pricing cannot move it."""
        import hashlib
        import json

        from repro.core.estimator import measured_table1
        from repro.telemetry import Collector

        def digest(value):
            text = json.dumps(value, sort_keys=True)
            return hashlib.sha256(text.encode()).hexdigest()

        collector = Collector(record_spans=False)
        document = measured_table1(batch=32, collector=collector)
        assert digest(document) == (
            "3e7eff3c1fca36a5445c93aaa1d0d48b12ac3468b4a18ef2c667f2567078f9ee"
        )
        assert len(collector.counters()) == 56
        assert digest(collector.counters()) == (
            "cd6cd10cb88eca0c5b786c84ce5a9065b7cfefc80dd24c4372344bd2229686af"
        )

    @pytest.mark.parametrize(
        "key",
        [
            "array_read_joules",
            "buffer_bit_joules",
            "cell_write_joules",
            "controller_static_watts",
        ],
    )
    def test_mispriced_event_fails_consistency_gate(self, key, monkeypatch):
        """Both paths share one work count, so the gate checks the
        pricing: the event-cost table against the closed-form component
        energies.  Nudging one cost by 1e-6 must trip it."""
        import repro.arch.components as components
        from repro.core.estimator import measured_table1

        exact = components.event_costs

        def mispriced(tech):
            costs = exact(tech)
            costs[key] *= 1 + 1e-6
            return costs

        monkeypatch.setattr(components, "event_costs", mispriced)
        with pytest.raises(ValueError, match="disagrees"):
            measured_table1(batch=32)
