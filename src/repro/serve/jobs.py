"""Schema-versioned job specifications: the serve layer's wire API.

A *job spec* is a frozen dataclass that fully describes one unit of
schedulable work — an inference run, a crossbar-in-the-loop training
run, or a reliability fault-injection campaign — in plain JSON-able
fields.  Specs are the single entry currency of both layers:

* in-process, :meth:`repro.api.Simulator.run` and
  :func:`repro.api.run_job` accept them directly — the only entry
  points of the facade;
* over the wire, :class:`repro.serve.server.JobServer` receives them
  as JSON documents (``to_dict`` / :func:`job_from_dict` round-trip,
  pinned by ``schema_version``).

Every field that affects the result is in the spec, and every spec
field is JSON-able — so a spec is also the determinism contract: two
runs of an equal spec produce bit-identical outputs (and equal
reports) on either engine backend.  Field types are checked at
construction, so a malformed wire document fails at the boundary
instead of inside a worker.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from repro.telemetry import SCHEMA_VERSION
from repro.utils.validation import (
    check_choice,
    check_document,
    check_positive,
)
from repro.workloads import RUNNABLE_WORKLOADS

#: Engine backends a job may pin (``None`` = the config's default).
BACKENDS = ("loop", "vectorized")

#: Tenant identifiers must fit the telemetry bracket grammar
#: (``serve/tenant[<id>]/...`` paths): lowercase alphanumerics plus
#: ``_ . -``, starting with a letter, digit, or underscore.
_TENANT_RE = re.compile(r"[a-z0-9_][a-z0-9_.-]*\Z")


def _check_integer(name: str, value: Any) -> None:
    """Reject non-integers (and ``bool``, which ``Integral`` admits)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_counts(spec: "JobSpec", *names: str) -> None:
    """Each named field of ``spec`` must be a positive integer."""
    for name in names:
        _check_integer(name, getattr(spec, name))
        check_positive(name, getattr(spec, name))


def _check_real(name: str, value: Any) -> None:
    """Reject non-real numbers (and ``bool``), ints no float holds, and
    the non-finite floats (``NaN``, ``Infinity``) JSON parsing admits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must fit a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_tenant(tenant: str) -> None:
    """Reject tenant ids that cannot index a telemetry scope."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ValueError(
            f"tenant {tenant!r} must match [a-z0-9_][a-z0-9_.-]* "
            "(it indexes the serve/tenant[<id>] telemetry scope)"
        )


@dataclass(frozen=True)
class JobSpec:
    """Fields shared by every job kind (see subclasses).

    ``seed`` is the *model* seed: network weights derive from it
    (``derive_seed(seed, "net:<workload>")``), so two specs with
    different seeds describe different models.  ``tenant`` names the
    submitting client for per-tenant telemetry; it never affects
    numerical results.
    """

    workload: str = "mlp"
    seed: int = 0
    backend: Optional[str] = None
    tenant: str = "default"

    #: Discriminator in the wire format; each subclass pins its own.
    kind: ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        if type(self) is JobSpec:
            raise TypeError(
                "JobSpec is abstract; instantiate InferenceJob, "
                "TrainingJob, or ReliabilityJob"
            )
        if self.workload not in RUNNABLE_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; pick from "
                f"{RUNNABLE_WORKLOADS}"
            )
        _check_integer("seed", self.seed)
        if self.backend is not None:
            check_choice("backend", self.backend, BACKENDS)
        check_tenant(self.tenant)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able wire form; inverse of :func:`job_from_dict`."""
        document: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
        }
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            document[spec_field.name] = value
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec of this class from its wire form.

        Validates ``schema_version`` and ``kind`` when present and
        rejects unknown fields, so schema drift fails loudly at the
        boundary instead of silently dropping request parameters.
        """
        check_document(
            document, {"schema_version?": SCHEMA_VERSION, "kind?": cls.kind},
            f"{cls.kind}_job",
        )
        payload = dict(document)
        payload.pop("schema_version", None)
        payload.pop("kind", None)
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown {cls.kind} job field(s): {', '.join(unknown)}"
            )
        if "rates" in payload and isinstance(payload["rates"], list):
            payload["rates"] = tuple(payload["rates"])
        return cls(**payload)


@dataclass(frozen=True)
class InferenceJob(JobSpec):
    """Forward ``count`` synthetic inputs through a deployed workload.

    ``input_seed`` selects the evaluation draw: ``None`` is the
    workload's canonical evaluation set (see
    :meth:`repro.api.Simulator.make_inputs`); an explicit value derives an
    independent input stream over the same class templates, letting
    tenants that share a model evaluate on distinct data.
    """

    count: int = 64
    batch: int = 32
    input_seed: Optional[int] = None

    kind: ClassVar[str] = "inference"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_counts(self, "count", "batch")
        if self.input_seed is not None:
            _check_integer("input_seed", self.input_seed)


@dataclass(frozen=True)
class TrainingJob(JobSpec):
    """Crossbar-in-the-loop training on the matching synthetic set."""

    epochs: int = 1
    batch: int = 32
    train_count: int = 256
    test_count: int = 64
    learning_rate: float = 0.05

    kind: ClassVar[str] = "training"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_counts(self, "epochs", "batch", "train_count", "test_count")
        _check_real("learning_rate", self.learning_rate)
        check_positive("learning_rate", self.learning_rate)


@dataclass(frozen=True)
class ReliabilityJob(JobSpec):
    """A fault-injection campaign (see :mod:`repro.reliability`).

    ``rates=None`` sweeps the per-axis preset.  ``backend=None`` runs
    the campaign on the ``"vectorized"`` backend: a job pins one
    backend, and the campaign's cross-backend (``"both"``)
    verification stays a CLI/API concern.
    """

    axis: str = "stuck"
    rates: Optional[Tuple[float, ...]] = None
    count: int = 32
    batch: int = 32
    train_epochs: int = 5
    train_count: int = 256
    include_tiles: bool = True

    kind: ClassVar[str] = "reliability"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_counts(self, "count", "batch", "train_count")
        _check_integer("train_epochs", self.train_epochs)
        if self.train_epochs < 0:
            raise ValueError(
                f"train_epochs must be >= 0, got {self.train_epochs}"
            )
        if not isinstance(self.include_tiles, bool):
            raise TypeError(
                f"include_tiles must be a bool, got {self.include_tiles!r}"
            )
        if self.rates is not None:
            for rate in self.rates:
                _check_real("rates", rate)
            object.__setattr__(
                self, "rates", tuple(float(rate) for rate in self.rates)
            )
            if not self.rates:
                raise ValueError("rates must be None or non-empty")
        # Lazy: the campaign layer sits above the wire format.  The axis
        # and every rate are checked where the campaign checks them.
        from repro.reliability.campaign import scenarios_for

        scenarios_for(self.axis, self.rates)


#: Wire discriminator -> spec class.
JOB_KINDS: Dict[str, Type[JobSpec]] = {
    InferenceJob.kind: InferenceJob,
    TrainingJob.kind: TrainingJob,
    ReliabilityJob.kind: ReliabilityJob,
}


def job_from_dict(document: Dict[str, Any]) -> JobSpec:
    """Rebuild any job spec from its wire form (dispatch on ``kind``)."""
    check_document(document, {"kind": frozenset(JOB_KINDS)}, "job")
    return JOB_KINDS[document["kind"]].from_dict(document)


__all__ = [
    "BACKENDS",
    "JOB_KINDS",
    "JobSpec",
    "InferenceJob",
    "TrainingJob",
    "ReliabilityJob",
    "check_tenant",
    "job_from_dict",
]
