"""JobSpec schema contract: round-trip, validation, dispatch."""

from __future__ import annotations

import pytest

from repro.serve.jobs import (
    BACKENDS,
    JOB_KINDS,
    InferenceJob,
    JobSpec,
    ReliabilityJob,
    TrainingJob,
    check_tenant,
    job_from_dict,
)
from repro.telemetry import SCHEMA_VERSION


class TestRoundTrip:
    @pytest.mark.parametrize(
        "job",
        [
            InferenceJob(),
            InferenceJob(
                workload="mnist_cnn",
                seed=7,
                backend="loop",
                tenant="lab.a-1",
                count=12,
                batch=4,
                input_seed=99,
            ),
            TrainingJob(epochs=2, learning_rate=0.1, tenant="t_0"),
            ReliabilityJob(axis="stuck", rates=(0.01, 0.05), count=8),
            ReliabilityJob(rates=None, include_tiles=False),
        ],
        ids=lambda job: f"{job.kind}-{job.tenant}",
    )
    def test_to_dict_from_dict_identity(self, job):
        document = job.to_dict()
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == job.kind
        rebuilt = job_from_dict(document)
        assert rebuilt == job
        # The wire form is JSON-able: only plain types survive.
        import json

        assert job_from_dict(json.loads(json.dumps(document))) == job

    def test_rates_tuple_coercion(self):
        job = ReliabilityJob(rates=[0.1, 0.2])
        assert job.rates == (0.1, 0.2)
        assert isinstance(job.rates, tuple)
        assert job.to_dict()["rates"] == [0.1, 0.2]


class TestValidation:
    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError, match="abstract"):
            JobSpec()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            InferenceJob(workload="resnet152")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            InferenceJob(backend="gpu")
        for backend in BACKENDS:
            InferenceJob(backend=backend)

    @pytest.mark.parametrize(
        "tenant", ["", "UPPER", "spa ce", "slash/y", "é"]
    )
    def test_bad_tenants_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            check_tenant(tenant)

    @pytest.mark.parametrize("tenant", ["a", "0", "_x", "a.b-c_9"])
    def test_good_tenants_accepted(self, tenant):
        check_tenant(tenant)
        assert InferenceJob(tenant=tenant).tenant == tenant

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            InferenceJob(count=0)
        with pytest.raises(ValueError):
            TrainingJob(epochs=0)
        with pytest.raises(ValueError):
            ReliabilityJob(train_epochs=-1)
        with pytest.raises(ValueError):
            ReliabilityJob(rates=())


class TestFieldTypes:
    """Wire values of the wrong type fail at the boundary."""

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("inference", "seed", "x"),
            ("inference", "seed", 1.5),
            ("inference", "seed", True),
            ("inference", "count", 2.5),
            ("inference", "count", True),
            ("inference", "count", "3"),
            ("inference", "batch", 4.0),
            ("inference", "input_seed", "abc"),
            ("inference", "input_seed", 1.5),
            ("training", "epochs", 1.5),
            ("training", "batch", True),
            ("training", "train_count", "32"),
            ("training", "test_count", 16.0),
            ("training", "learning_rate", "0.1"),
            ("training", "learning_rate", True),
            ("reliability", "train_epochs", 1.0),
            ("reliability", "train_count", False),
            ("reliability", "count", "8"),
            ("reliability", "include_tiles", 1),
            ("reliability", "include_tiles", "yes"),
            ("reliability", "rates", ["0.1"]),
            ("reliability", "rates", [True]),
        ],
    )
    def test_bad_value_rejected(self, kind, field, value):
        document = {"kind": kind, field: value}
        with pytest.raises(TypeError, match=field):
            job_from_dict(document)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "kind, field, wrap",
        [
            ("reliability", "rates", lambda value: [0.1, value]),
            ("training", "learning_rate", lambda value: value),
        ],
        ids=["rates", "learning_rate"],
    )
    def test_non_finite_real_rejected(self, kind, field, wrap, value):
        # json.loads parses NaN and Infinity; they stop at the boundary.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            job_from_dict({"kind": kind, field: wrap(value)})

    def test_numpy_and_plain_numbers_accepted(self):
        import numpy as np

        job = InferenceJob(seed=np.int64(3), count=np.int32(4))
        assert job.seed == 3 and job.count == 4
        assert TrainingJob(learning_rate=1).learning_rate == 1
        assert ReliabilityJob(rates=[0, 0.5]).rates == (0.0, 0.5)


class TestWireRejections:
    def test_wrong_schema_version(self):
        document = InferenceJob().to_dict()
        document["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            job_from_dict(document)

    def test_unknown_kind(self):
        document = InferenceJob().to_dict()
        document["kind"] = "detonation"
        with pytest.raises(ValueError, match="kind"):
            job_from_dict(document)

    def test_unknown_field(self):
        document = InferenceJob().to_dict()
        document["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            job_from_dict(document)

    def test_kind_mismatch_on_class_from_dict(self):
        document = TrainingJob().to_dict()
        with pytest.raises(ValueError, match="kind"):
            InferenceJob.from_dict(document)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            job_from_dict(["not", "a", "dict"])

    def test_kind_table_is_complete(self):
        assert set(JOB_KINDS) == {"inference", "training", "reliability"}
        for kind, spec_class in JOB_KINDS.items():
            assert spec_class.kind == kind


class TestSpecsAreFrozenAndHashable:
    def test_frozen(self):
        job = InferenceJob()
        with pytest.raises(AttributeError):
            job.count = 128

    def test_equal_specs_hash_equal(self):
        assert hash(InferenceJob(seed=3)) == hash(InferenceJob(seed=3))
        assert InferenceJob(seed=3) != InferenceJob(seed=4)
