"""Simulation-as-a-service: the multi-tenant job server.

The paper's accelerator only pays off when the crossbar arrays stay
saturated; this package keeps them saturated across *clients*.  A
long-lived asyncio server (:class:`~repro.serve.server.JobServer`)
accepts schema-versioned job specs (:mod:`repro.serve.jobs`) from
concurrent tenants and drives them through the
:class:`repro.api.Simulator` facade with three throughput levers:

* **coalescing** — compatible inference requests (same programmed
  state, batch-invariant pipeline config) merge into single batched
  crossbar evaluations (:func:`repro.api.run_coalesced`), with outputs
  split back per job, bit-identical to running each job alone;
* **programmed-state caching** — deployed simulators are cached by
  ``(weights_hash, device_config_hash)``
  (:mod:`repro.serve.cache`), so repeat tenants skip array
  reprogramming entirely;
* **sharding** — independent jobs spread over a bounded worker pool,
  serialized per programmed model (the arrays are a physical
  resource) but parallel across distinct models.

Every job gets deterministic RNG derivation (the spec *is* the
randomness), a ``serve/tenant[<id>]/...`` telemetry scope, and a
schema-versioned ``job_report`` document.  The CLI front end is
``repro serve``; :mod:`repro.serve.client` has the matching blocking
client helper used by the tests and the CI smoke run.

The job schemas import eagerly (the facade API needs them); the
server stack loads lazily so ``repro.api`` can import this package
without a circular import.
"""

from __future__ import annotations

from typing import Any

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

__all__ = [
    "BACKENDS",
    "JOB_KINDS",
    "JobSpec",
    "InferenceJob",
    "TrainingJob",
    "ReliabilityJob",
    "check_tenant",
    "job_from_dict",
    "JobServer",
    "ServerConfig",
    "ProgrammedStateCache",
    "ServeClient",
    "coalesce_plan",
    "job_report",
    "validate_job_report",
    "validate_stats_report",
]

#: Lazily resolved server-stack exports -> defining submodule.  The
#: server imports repro.api (which imports repro.serve.jobs), so an
#: eager import here would be circular.
_LAZY = {
    "JobServer": "repro.serve.server",
    "ServerConfig": "repro.serve.server",
    "job_report": "repro.serve.server",
    "validate_job_report": "repro.serve.server",
    "validate_stats_report": "repro.serve.server",
    "ProgrammedStateCache": "repro.serve.cache",
    "ServeClient": "repro.serve.client",
    "coalesce_plan": "repro.serve.scheduler",
}


def __getattr__(name: str) -> Any:
    module_path = _LAZY.get(name)
    if module_path is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_path), name)


def __dir__() -> list:
    return sorted(set(__all__))
