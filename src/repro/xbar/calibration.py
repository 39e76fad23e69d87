"""Activation-range calibration for crossbar deployment.

The spike driver quantizes activations over a fixed voltage range; by
default the engine calibrates that range *per call* (the max absolute
activation of the batch), which real hardware cannot do — the DAC
reference is set once at deployment.  This module implements the
standard fix: run a calibration set through the float network, record
per-layer activation statistics, and freeze each layer's
``activation_range`` before deployment.

Two policies are provided:

* ``max`` — the largest absolute input activation seen (no clipping on
  the calibration set, widest quantization step);
* ``percentile`` — a high percentile of |activation| (clips rare
  outliers in exchange for a finer step over the common range; usually
  more accurate at low bit widths).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.nn.layers import Conv2D, Dense, FractionalStridedConv2D
from repro.nn.network import Sequential
from repro.utils.im2col import im2col, insert_zeros, pad_nchw
from repro.utils.validation import check_choice, check_in_range, check_positive
from repro.xbar.engine import CrossbarEngineConfig


@dataclass(frozen=True)
class LayerCalibration:
    """Observed input-activation statistics of one weight layer."""

    layer_name: str
    max_abs: float
    percentile_99: float
    mean_abs: float

    def range_for(self, policy: str) -> float:
        """The activation range the chosen policy freezes."""
        check_choice("policy", policy, ("max", "percentile"))
        value = self.max_abs if policy == "max" else self.percentile_99
        # Guard: an all-zero calibration trace still needs a positive
        # range for the quantizer.
        return max(value, 1e-12)


def collect_calibration(
    network: Sequential,
    calibration_images: np.ndarray,
    percentile: float = 99.0,
) -> Dict[str, LayerCalibration]:
    """Record per-layer input-activation statistics on a float run.

    The statistics describe what each crossbar's *word lines* will see:
    for a Dense layer its input vector, for a Conv2D layer the im2col
    rows (each receptive field), matching how the engine quantizes.
    """
    check_positive("calibration examples", calibration_images.shape[0])
    check_in_range("percentile", percentile, 50.0, 100.0)
    stats: Dict[str, LayerCalibration] = {}
    activations = np.asarray(calibration_images, dtype=np.float64)
    for layer in network.layers:
        if isinstance(layer, Dense):
            drive = activations
        elif isinstance(layer, Conv2D):
            drive = im2col(
                activations,
                layer.kernel_size,
                layer.kernel_size,
                layer.stride,
                layer.pad,
            )
        elif isinstance(layer, FractionalStridedConv2D):
            extended = pad_nchw(
                insert_zeros(activations, layer.stride),
                layer.kernel_size - 1 - layer.pad,
            )
            drive = im2col(extended, layer.kernel_size, layer.kernel_size)
        else:
            drive = None
        if drive is not None:
            magnitudes = np.abs(drive)
            # Percentile over the *nonzero* drive values: ReLU outputs
            # and (especially) zero-inserted FCNN maps are mostly exact
            # zeros, which would otherwise drag the percentile far
            # below the range the word lines actually use.
            nonzero = magnitudes[magnitudes > 0]
            reference = nonzero if nonzero.size else magnitudes.reshape(-1)
            stats[layer.name] = LayerCalibration(
                layer_name=layer.name,
                max_abs=float(magnitudes.max()),
                percentile_99=float(np.percentile(reference, percentile)),
                mean_abs=float(magnitudes.mean()),
            )
        activations = layer.forward(activations, training=False)
    if not stats:
        raise ValueError("network has no Dense or Conv2D layers")
    return stats


def calibrated_configs(
    base: CrossbarEngineConfig,
    calibration: Dict[str, LayerCalibration],
    policy: str = "percentile",
) -> Dict[str, CrossbarEngineConfig]:
    """Per-layer engine configs with frozen activation ranges."""
    check_choice("policy", policy, ("max", "percentile"))
    return {
        name: replace(base, activation_range=stats.range_for(policy))
        for name, stats in calibration.items()
    }


def deploy_calibrated(
    network: Sequential,
    base: CrossbarEngineConfig,
    calibration_images: np.ndarray,
    policy: str = "percentile",
    rng=None,
):
    """Calibrate and deploy in one step.

    Returns the :class:`~repro.core.compiler.Deployment`; each layer's
    engine carries its own frozen activation range.
    """
    from repro.core.compiler import deploy_network

    calibration = collect_calibration(network, calibration_images)
    configs = calibrated_configs(base, calibration, policy=policy)
    deployment = deploy_network(network, base, rng=rng)
    for name, engine in deployment.engines.items():
        if name in configs:
            engine.config = configs[name]
    return deployment


def calibration_report(
    calibration: Dict[str, LayerCalibration]
) -> List[str]:
    """Human-readable per-layer calibration table."""
    lines = [
        f"{'layer':<24s}{'max|x|':>12s}{'p99|x|':>12s}{'mean|x|':>12s}"
    ]
    for name, stats in calibration.items():
        lines.append(
            f"{name:<24s}{stats.max_abs:>12.4g}"
            f"{stats.percentile_99:>12.4g}{stats.mean_abs:>12.4g}"
        )
    return lines
