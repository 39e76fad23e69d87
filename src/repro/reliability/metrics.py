"""Error-propagation metrics: where a fault's damage goes.

A reliability campaign wants more than a final accuracy number — it
wants to see *where* injected faults enter the computation and how far
they travel.  :func:`record_reference` runs the golden (exact float)
network over the evaluation inputs once, keeping the activations after
every weighted layer; :func:`lockstep_trace` then runs each
fault-injected crossbar twin over the same inputs, in the same batch
slices, and accumulates its divergence from those records layer by
layer; :func:`weight_error` measures the damage already done in the
weight domain (what the arrays hold vs what was asked for).

Both networks must be architecturally identical with identical
parameters — the campaign builds them from the same workload seed and
copies the trained weights across — so every divergence is
attributable to the injected device faults alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.nn.layers import Conv2D, Dense, FractionalStridedConv2D
from repro.nn.network import Sequential

#: Layer types whose forward pass runs through a crossbar engine.
WEIGHT_LAYERS = (Dense, Conv2D, FractionalStridedConv2D)


def relative_rms(error_sse: float, reference_energy: float) -> float:
    """Relative RMS error ``sqrt(sum(err^2) / sum(ref^2))``.

    0 when the reference signal itself is identically zero (no signal,
    no meaningful relative error).
    """
    if reference_energy == 0.0:
        return 0.0
    return float(np.sqrt(error_sse / reference_energy))


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """:func:`relative_rms` of ``actual`` against ``expected``."""
    difference = actual - expected
    return relative_rms(
        float(np.sum(difference * difference)),
        float(np.sum(expected * expected)),
    )


@dataclass(frozen=True)
class ReferenceTrace:
    """A golden network's forward pass over ``inputs``, recorded.

    The pass runs in ``batch`` slices; ``outputs[index]`` holds, slice
    by slice, the activations right after the weighted layer at
    ``index``, ``energy[index]`` their summed squares (accumulated
    slice by slice) and ``logits`` the network output over every input.
    """

    inputs: np.ndarray
    batch: int
    depth: int
    outputs: Dict[int, List[np.ndarray]]
    energy: Dict[int, float]
    logits: np.ndarray


def record_reference(
    network: Sequential, inputs: np.ndarray, batch: int = 32
) -> ReferenceTrace:
    """Forward the golden ``network`` over ``inputs`` once, recording it."""
    outputs: Dict[int, List[np.ndarray]] = {
        index: []
        for index, layer in enumerate(network.layers)
        if isinstance(layer, WEIGHT_LAYERS)
    }
    energy = dict.fromkeys(outputs, 0.0)
    logits = []
    for start in range(0, inputs.shape[0], batch):
        x = inputs[start : start + batch]
        for index, layer in enumerate(network.layers):
            x = layer.forward(x, training=False)
            if index in outputs:
                outputs[index].append(x)
                energy[index] += float(np.sum(x * x))
        logits.append(x)
    return ReferenceTrace(
        inputs,
        batch,
        len(network.layers),
        outputs,
        energy,
        np.concatenate(logits, axis=0),
    )


def lockstep_trace(
    reference: ReferenceTrace, faulty: Sequential
) -> Tuple[np.ndarray, List[Dict[str, float]]]:
    """Forward the faulty twin, tracking its divergence from a reference.

    The faulty network runs over the reference's inputs in the same
    batch slices.  Returns ``(faulty_logits, layer_records)`` where
    ``layer_records`` holds, for each weighted layer in network order,
    the relative RMS error and worst absolute error of the faulty
    network's activations immediately after that layer — the
    error-propagation profile of the injected faults.
    """
    if reference.depth != len(faulty.layers):
        raise ValueError(
            f"networks differ in depth: {reference.depth} vs "
            f"{len(faulty.layers)}"
        )
    sse = dict.fromkeys(reference.outputs, 0.0)
    max_abs = dict.fromkeys(reference.outputs, 0.0)
    faulty_logits = []
    starts = range(0, reference.inputs.shape[0], reference.batch)
    for position, start in enumerate(starts):
        x = reference.inputs[start : start + reference.batch]
        for index, layer in enumerate(faulty.layers):
            x = layer.forward(x, training=False)
            if index in sse:
                difference = x - reference.outputs[index][position]
                sse[index] += float(np.sum(difference * difference))
                max_abs[index] = max(
                    max_abs[index], float(np.max(np.abs(difference)))
                )
        faulty_logits.append(x)
    records = [
        {
            "layer": faulty.layers[index].name,
            "output_rms_error": relative_rms(
                sse[index], reference.energy[index]
            ),
            "output_max_abs_error": max_abs[index],
        }
        for index in sse
    ]
    return np.concatenate(faulty_logits, axis=0), records


def weight_error(engine) -> float:
    """Relative RMS deviation of programmed vs requested weights.

    Compares the matrix the arrays physically hold (with programming
    noise and stuck faults baked in) against the quantized matrix the
    compiler asked for; 0 for an ideal device.
    """
    return relative_error(
        engine.effective_weights(), engine.quantized_weights()
    )


def output_metrics(
    ref_logits: np.ndarray,
    faulty_logits: np.ndarray,
    labels: np.ndarray,
) -> Dict[str, float]:
    """Network-output damage summary of one scenario run.

    ``mismatch_rate`` is the fraction of inputs whose *prediction*
    changed relative to the golden network — the end-to-end soft-error
    rate the fault tolerance literature reports — independent of
    whether either prediction is correct.
    """
    ref_predictions = np.argmax(ref_logits, axis=1)
    faulty_predictions = np.argmax(faulty_logits, axis=1)
    return {
        "accuracy": float(np.mean(faulty_predictions == labels)),
        "mismatch_rate": float(np.mean(faulty_predictions != ref_predictions)),
        "logit_rms_error": relative_error(faulty_logits, ref_logits),
    }
