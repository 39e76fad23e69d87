"""Tests for the ``repro.api`` facade, the curated core surface, and
the CLI's ``--json`` contract."""

import json
import warnings

import numpy as np
import pytest

import repro
import repro.core
from repro import Simulator
from repro.api import (
    InferenceJob,
    TrainingJob,
    gan_scheme_report,
    mapping_sweep,
    pipeline_sweep,
    schedule_trace,
    table1_report,
)
from repro.cli import main
from repro.xbar.engine import CrossbarEngineConfig


class TestSimulator:
    def test_from_workload_deploys_engines(self):
        sim = Simulator.from_workload("mlp", seed=3)
        info = sim.engine_info()
        assert info  # one entry per weight layer
        assert all(entry["engine"] == "crossbar" for entry in info.values())

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Simulator.from_workload("resnet")

    def test_backend_override_reaches_engines(self):
        sim = Simulator.from_workload("mlp", backend="loop", seed=3)
        assert all(
            entry["backend"] == "loop"
            for entry in sim.engine_info().values()
        )

    def test_run_inference_counts_operations(self):
        sim = Simulator.from_workload("mlp", seed=3)
        result = sim.run(
            InferenceJob(workload="mlp", seed=3, count=16, batch=8)
        )
        assert result.count == 16
        assert result.outputs.shape == (16, sim.dataset.classes)
        assert result.stats["mvm_calls"] > 0
        assert 0.0 <= result.accuracy <= 1.0
        document = result.to_dict()
        json.dumps(document)  # must be JSON-able
        assert "outputs" not in document

    def test_run_inference_is_deterministic(self):
        job = InferenceJob(workload="mlp", seed=9, count=8, batch=8)
        first = Simulator.from_workload("mlp", seed=9).run(job)
        second = Simulator.from_workload("mlp", seed=9).run(job)
        assert np.array_equal(first.outputs, second.outputs)

    def test_backends_bit_identical_through_facade(self):
        config = CrossbarEngineConfig(
            array_rows=16, array_cols=16, fast_ideal=False
        )
        outputs = {}
        for backend in ("loop", "vectorized"):
            sim = Simulator.from_workload(
                "mlp", engine_config=config, backend=backend, seed=4
            )
            outputs[backend] = sim.run(
                InferenceJob(workload="mlp", seed=4, count=8, batch=8)
            ).outputs
        assert np.array_equal(outputs["loop"], outputs["vectorized"])

    def test_train_reprograms_arrays(self):
        sim = Simulator.from_workload("mlp", seed=5)
        result = sim.run(
            TrainingJob(
                workload="mlp",
                seed=5,
                epochs=1,
                batch=16,
                train_count=48,
                test_count=16,
            )
        )
        assert result.stats["array_programs"] > 0
        assert result.batch_losses
        json.dumps(result.to_dict())

    def test_undeploy_restores_exact_matmul(self):
        sim = Simulator.from_workload("mlp", seed=3)
        sim.undeploy()
        assert sim.engine_info() == {}
        assert sim.stats() == {}
        # forward still works on the exact path
        result = sim.run(
            InferenceJob(workload="mlp", seed=3, count=8, batch=8)
        )
        assert result.stats == {}

    def test_spec_derivation(self):
        sim = Simulator.from_workload("mnist_cnn", seed=0, deploy=False)
        spec = sim.spec()
        assert spec.depth >= 3
        assert spec.total_weights > 0

    def test_facade_reexported_from_package_root(self):
        assert repro.Simulator is Simulator
        assert "Simulator" in repro.__all__


def test_front_door_doctest_runs():
    import doctest

    import repro.api

    results = doctest.testmod(repro.api)
    assert results.attempted > 0
    assert results.failed == 0


class TestReportFunctions:
    def test_mapping_sweep_shape(self):
        sweep = mapping_sweep(duplications=(1, 4))
        rows = sweep["rows"]
        assert [row["duplication"] for row in rows] == [1, 4]
        assert rows[0]["passes_per_image"] > rows[1]["passes_per_image"]

    def test_pipeline_sweep_speedup_grows(self):
        sweep = pipeline_sweep(layers=6, batches=(1, 32))
        rows = sweep["rows"]
        assert rows[-1]["speedup"] > rows[0]["speedup"]
        assert sweep["layers"] == 6

    def test_gan_scheme_report_has_all_datasets(self):
        report = gan_scheme_report(batch=8)
        assert set(report["datasets"]) == {
            "mnist", "cifar10", "celeba", "lsun"
        }

    def test_schedule_trace_json_able(self):
        document = schedule_trace(layers=2, batch=2)
        json.dumps(document)
        assert document["makespan"] > 0
        assert "fwd L1" in document["gantt"]


class TestCuratedCoreSurface:
    def test_curated_names_import_cleanly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import (  # noqa: F401
                Deployment,
                PipeLayerModel,
                ReGANModel,
                deploy_network,
                pipelayer_table1,
                train_on_crossbar,
            )

    def test_submodule_import_still_works(self):
        from repro.core.mapping import balanced_mapping

        assert callable(balanced_mapping)

    def test_unknown_name_raises_attribute_error(self):
        # Building blocks live only in their defining submodules.
        for name in ("does_not_exist", "balanced_mapping", "scheme_table"):
            with pytest.raises(AttributeError):
                getattr(repro.core, name)

    def test_dir_lists_only_curated_surface(self):
        names = dir(repro.core)
        assert "pipelayer_table1" in names
        assert "balanced_mapping" not in names


class TestCliJson:
    def _json_out(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_fig4_json(self, capsys):
        document = self._json_out(capsys, ["fig4", "--json"])
        assert document["rows"][0]["duplication"] == 1

    def test_fig5_json(self, capsys):
        document = self._json_out(
            capsys, ["fig5", "--layers", "3", "--json"]
        )
        assert {"batch", "speedup"} <= set(document["rows"][0])

    def test_fig9_json(self, capsys):
        document = self._json_out(capsys, ["fig9", "--batch", "8", "--json"])
        assert "mnist" in document["datasets"]

    def test_summary_json(self, capsys):
        document = self._json_out(capsys, ["summary", "mnist", "--json"])
        assert document["name"] == "mnist_cnn"
        assert document["total_macs"] > 0

    def test_trace_json(self, capsys):
        document = self._json_out(
            capsys, ["trace", "--layers", "2", "--batch", "2", "--json"]
        )
        assert document["makespan"] > 0

    def test_area_json(self, capsys):
        document = self._json_out(
            capsys, ["area", "mnist", "--budget", "8192", "--json"]
        )
        assert document["array_count"] > 0

    def test_infer_json(self, capsys):
        document = self._json_out(
            capsys,
            ["infer", "mlp", "--count", "8", "--batch", "8", "--json"],
        )
        assert document["stats"]["mvm_calls"] > 0

    def test_infer_seed_changes_nothing_but_data(self, capsys):
        first = self._json_out(
            capsys,
            ["infer", "mlp", "--count", "8", "--batch", "8", "--seed", "1",
             "--json"],
        )
        again = self._json_out(
            capsys,
            ["infer", "mlp", "--count", "8", "--batch", "8", "--seed", "1",
             "--json"],
        )
        assert first == again

    def test_train_json(self, capsys):
        document = self._json_out(
            capsys,
            ["train", "mlp", "--epochs", "1", "--train-count", "32",
             "--test-count", "16", "--batch", "16", "--json"],
        )
        assert document["stats"]["array_programs"] > 0

    def test_table1_json_is_the_api_document(self, capsys):
        # Without --batch the command runs at the documented 32.
        assert main(["table1", "--json"]) == 0
        assert capsys.readouterr().out == (
            json.dumps(table1_report(32), indent=2) + "\n"
        )

    def test_table1_text_is_the_row_summaries(self, capsys):
        # The text is rendered from the emitted document, byte for byte
        # what each TableOneRow prints.
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == "\n\n".join(
            row.summary() for row in Simulator.table1(32).values()
        ) + "\n"

    @pytest.mark.slow
    def test_table1_json(self, capsys):
        document = self._json_out(capsys, ["table1", "--json"])
        assert document["pipelayer"]["speedup"] > 1.0
        assert document["regan"]["speedup"] > 1.0
