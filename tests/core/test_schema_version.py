"""Schema pinning: every JSON document the CLI and API emit carries
``schema_version``, and the version is the one this test suite pins.

Downstream consumers (CI byte-comparisons, the benchmark JSON records,
external dashboards) key on this field; bumping ``SCHEMA_VERSION``
must be a conscious, test-visible act.
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.reliability import run_campaign
from repro.telemetry import SCHEMA_VERSION

#: The version this branch of the schema is pinned to.  If this fails,
#: either revert the accidental change or bump deliberately: update
#: this constant, the exporter validators, and every consumer.
PINNED_VERSION = 1


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == PINNED_VERSION


class TestApiReportsCarryVersion:
    def test_mapping_sweep(self):
        assert api.mapping_sweep(duplications=(1,))[
            "schema_version"
        ] == PINNED_VERSION

    def test_pipeline_sweep(self):
        report = api.pipeline_sweep(layers=2, batches=(1, 2))
        assert report["schema_version"] == PINNED_VERSION

    def test_gan_scheme_report(self):
        assert api.gan_scheme_report(batch=4)[
            "schema_version"
        ] == PINNED_VERSION

    def test_schedule_trace(self):
        assert api.schedule_trace(layers=2, batch=2)[
            "schema_version"
        ] == PINNED_VERSION

    def test_inference_result(self):
        sim = api.Simulator.from_workload("mlp", seed=0)
        document = sim.run(
            api.InferenceJob(workload="mlp", seed=0, count=8, batch=8)
        ).to_dict()
        assert document["schema_version"] == PINNED_VERSION

    def test_train_result(self):
        sim = api.Simulator.from_workload("mlp", seed=0)
        document = sim.run(
            api.TrainingJob(
                workload="mlp",
                seed=0,
                epochs=1,
                batch=16,
                train_count=32,
                test_count=16,
            )
        ).to_dict()
        assert document["schema_version"] == PINNED_VERSION

    def test_reliability_report(self):
        report = run_campaign(
            workload="mlp",
            rates=(0.0,),
            count=8,
            batch=8,
            train_epochs=0,
            include_tiles=False,
        )
        assert report["schema_version"] == PINNED_VERSION


class TestCliEmitsVersion:
    """``_emit`` guarantees the field even for legacy documents."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--json"],
            ["fig5", "--layers", "2", "--json"],
            ["fig9", "--batch", "4", "--json"],
            ["summary", "mnist", "--json"],
            ["trace", "--layers", "2", "--batch", "2", "--json"],
            ["sensitivity", "--json"],
            ["area", "mnist", "--budget", "8192", "--json"],
            ["infer", "mlp", "--count", "8", "--batch", "8", "--json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_documents_carry_version(self, capsys, argv):
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == PINNED_VERSION
