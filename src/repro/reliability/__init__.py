"""Deterministic fault-injection & reliability campaigns.

The robustness/observability layer over the crossbar simulator: sweep
a fault axis (stuck cells, transient read upsets, conductance drift,
programming/read noise) across a deployed workload and report
accuracy degradation and error propagation per scenario, per layer,
and per tile — reproducibly (one seed, byte-identical JSON) and
backend-consistently (loop and vectorized engines report identical
fault outcomes).
"""

from repro.reliability.campaign import (
    AXES,
    DEFAULT_RATES,
    BackendMismatchError,
    FaultScenario,
    campaign_summary,
    run_campaign,
    scenarios_for,
)
from repro.reliability.metrics import (
    lockstep_trace,
    output_metrics,
    record_reference,
    relative_rms,
    weight_error,
)

__all__ = [
    "AXES",
    "DEFAULT_RATES",
    "BackendMismatchError",
    "FaultScenario",
    "campaign_summary",
    "run_campaign",
    "scenarios_for",
    "lockstep_trace",
    "output_metrics",
    "record_reference",
    "relative_rms",
    "weight_error",
]
