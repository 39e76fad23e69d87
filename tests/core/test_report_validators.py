"""The report validators SCHEMA002 requires for every emitter.

Each ``*_report`` emitter in the API facade has a registered
``validate_*`` twin; these tests feed the validators real documents
(cheap parameterizations) and prove they reject structural damage.
"""

import pytest

from repro.api import (
    SCHEMA_VERSION,
    gan_scheme_report,
    reliability_report,
    table1_report,
    validate_gan_scheme_report,
    validate_reliability_report,
    validate_table1_report,
)

FAST_CAMPAIGN = dict(
    workload="mlp",
    rates=(0.0,),
    seed=0,
    count=8,
    batch=8,
    train_epochs=1,
    train_count=32,
    include_tiles=False,
)


class TestGanSchemeReport:
    def test_real_document_validates(self):
        document = gan_scheme_report(batch=8)
        assert validate_gan_scheme_report(document) is document

    def test_rejects_damage(self):
        document = gan_scheme_report(batch=8)
        with pytest.raises(ValueError, match="schema_version"):
            validate_gan_scheme_report(
                {**document, "schema_version": 99}
            )
        with pytest.raises(ValueError, match="batch"):
            validate_gan_scheme_report({**document, "batch": 0})
        with pytest.raises(ValueError, match="dataset"):
            validate_gan_scheme_report({**document, "datasets": {}})
        broken = {
            **document,
            "datasets": {"mnist": [{"scheme": "sp_cs"}]},
        }
        with pytest.raises(ValueError, match="missing key 'cycles'"):
            validate_gan_scheme_report(broken)


class TestReliabilityReport:
    def test_real_document_validates(self):
        document = reliability_report(axis="stuck", **FAST_CAMPAIGN)
        assert validate_reliability_report(document) is document
        assert document["scenarios"][0]["rate"] == 0.0

    def test_rejects_damage(self):
        document = reliability_report(axis="stuck", **FAST_CAMPAIGN)
        with pytest.raises(ValueError, match="scenario"):
            validate_reliability_report(
                {**document, "scenarios": []}
            )
        with pytest.raises(ValueError, match="count: expected int"):
            validate_reliability_report(
                {**document, "count": "eight"}
            )
        with pytest.raises(ValueError, match="baseline_accuracy"):
            validate_reliability_report(
                {**document, "baseline_accuracy": None}
            )


class TestTable1Report:
    def _row(self):
        return {
            "speedup": 42.0,
            "energy_saving": 7.0,
            "paper_speedup": 42.1,
            "paper_energy_saving": 7.1,
            "per_workload": [
                {"network": "mlp", "speedup": 40.0}
            ],
        }

    def test_rejects_damage(self):
        document = {
            "schema_version": SCHEMA_VERSION,
            "pipelayer": self._row(),
        }
        assert validate_table1_report(document) is document
        with pytest.raises(ValueError, match="no accelerator rows"):
            validate_table1_report(
                {"schema_version": SCHEMA_VERSION}
            )
        bad = {
            "schema_version": SCHEMA_VERSION,
            "pipelayer": {**self._row(), "speedup": -1.0},
        }
        with pytest.raises(ValueError, match="speedup: expected number > 0"):
            validate_table1_report(bad)
        nameless = {
            "schema_version": SCHEMA_VERSION,
            "pipelayer": {
                **self._row(),
                "per_workload": [{"speedup": 1.0}],
            },
        }
        with pytest.raises(ValueError, match="missing key 'network'"):
            validate_table1_report(nameless)

    @pytest.mark.slow
    def test_real_document_validates(self):
        document = table1_report(batch=32)
        assert validate_table1_report(document) is document
        assert document["pipelayer"]["speedup"] > 1.0
