"""Compiler: bridge between live networks and the accelerator models.

Two jobs:

* :func:`spec_from_network` — derive a shape-level
  :class:`~repro.workloads.suite.NetworkSpec` from a live
  :class:`~repro.nn.network.Sequential`, so any network built with the
  DNN substrate can be priced by the PipeLayer/ReGAN models.
* :func:`deploy_network` — attach a :class:`~repro.xbar.engine.
  CrossbarEngine` to every weight layer, so the same network *executes*
  its forward matmuls through the simulated PIM datapath (the
  functional counterpart of programming morphable subarrays into
  compute mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    FractionalStridedConv2D,
    MaxPool2D,
)
from repro.nn.network import Sequential
from repro.telemetry import Collector
from repro.utils.rng import RngLike, spawn_rngs
from repro.workloads.specs import LayerSpec
from repro.workloads.suite import NetworkSpec
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig


def spec_from_network(
    network: Sequential, input_shape: Tuple[int, ...]
) -> NetworkSpec:
    """Derive the shape-level spec of a live network.

    ``input_shape`` is batch-free, ``(C, H, W)`` or ``(features,)``.
    Shape-only layers (activations, flatten, batch norm, dropout)
    contribute nothing; pooling and weighted layers become
    :class:`LayerSpec` entries.
    """
    specs: List[LayerSpec] = []
    shape = tuple(input_shape)
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            specs.append(
                LayerSpec(
                    kind="conv",
                    in_channels=shape[0],
                    in_height=shape[1],
                    in_width=shape[2],
                    out_channels=layer.out_channels,
                    kernel=layer.kernel_size,
                    stride=layer.stride,
                    pad=layer.pad,
                    name=layer.name,
                )
            )
        elif isinstance(layer, FractionalStridedConv2D):
            specs.append(
                LayerSpec(
                    kind="fcnn",
                    in_channels=shape[0],
                    in_height=shape[1],
                    in_width=shape[2],
                    out_channels=layer.out_channels,
                    kernel=layer.kernel_size,
                    stride=layer.stride,
                    pad=layer.pad,
                    name=layer.name,
                )
            )
        elif isinstance(layer, Dense):
            specs.append(
                LayerSpec(
                    kind="fc",
                    in_channels=layer.in_features,
                    in_height=1,
                    in_width=1,
                    out_channels=layer.out_features,
                    name=layer.name,
                )
            )
        elif isinstance(layer, (MaxPool2D, AvgPool2D)):
            specs.append(
                LayerSpec(
                    kind="pool",
                    in_channels=shape[0],
                    in_height=shape[1],
                    in_width=shape[2],
                    out_channels=shape[0],
                    kernel=layer.window,
                    stride=layer.stride,
                    name=layer.name,
                )
            )
        shape = layer.output_shape(shape)
    if not specs:
        raise ValueError("network contains no layers with a hardware cost")
    input_3d = (
        tuple(input_shape)
        if len(input_shape) == 3
        else (int(input_shape[0]), 1, 1)
    )
    return NetworkSpec(
        name=network.name, layers=tuple(specs), input_shape=input_3d
    )


@dataclass
class Deployment:
    """Record of a network deployed onto crossbar engines."""

    network: Sequential
    engines: Dict[str, CrossbarEngine] = field(default_factory=dict)

    @property
    def array_count(self) -> int:
        """Physical arrays across all deployed layers (after priming)."""
        return sum(engine.array_count for engine in self.engines.values())

    def total_stats(self) -> Dict[str, int]:
        """Aggregate operation counters across all engines."""
        return {
            name: sum(
                int(engine.telemetry.get(name))
                for engine in self.engines.values()
            )
            for name in (
                "mvm_calls",
                "subcycles",
                "array_reads",
                "array_programs",
                "adc_conversions",
            )
        }

    def engine_info(self) -> Dict[str, dict]:
        """Per-layer engine descriptions (backend, array counts, ...)."""
        return {
            name: engine.info() for name, engine in self.engines.items()
        }

    def undeploy(self) -> None:
        """Detach all engines (layers fall back to exact matmul)."""
        for layer in self.network.layers:
            if isinstance(layer, (Dense, Conv2D, FractionalStridedConv2D)):
                layer.engine = None
        self.engines.clear()


def deploy_network(
    network: Sequential,
    config: Optional[CrossbarEngineConfig] = None,
    rng: RngLike = None,
    backend: Optional[str] = None,
    collector: Optional[Collector] = None,
) -> Deployment:
    """Attach crossbar engines to every Dense/Conv2D layer.

    Each layer gets its own engine (its own arrays), seeded
    independently so device noise is uncorrelated across layers.
    Fractional-strided convolutions run through the crossbars via their
    Fig. 7(a) mapping: the equivalent flipped kernel is programmed and
    the zero-inserted input drives it as an ordinary convolution.

    ``backend`` (``"loop"`` or ``"vectorized"``) overrides the
    evaluation backend of ``config`` without the caller having to
    rebuild the config — the two are bit-identical under a shared
    seed, so this is purely a throughput knob.

    ``collector`` attaches a :class:`repro.telemetry.Collector` (a
    scope is a ``Collector`` over its root's store): each layer's
    engine writes its counters and timing spans under
    ``engine/<layer name>/...``, giving one hierarchical telemetry
    tree for the whole deployment.  Counter telemetry is
    part of the backend bit-identity contract; spans are wall-clock.

    The engines are *lazy*: arrays are programmed at the first forward
    pass (when ``prepare`` first sees the weights).
    """
    config = config or CrossbarEngineConfig()
    if backend is not None and backend != config.backend:
        config = replace(config, backend=backend)
    targets = [
        layer
        for layer in network.layers
        if isinstance(layer, (Dense, Conv2D, FractionalStridedConv2D))
    ]
    if not targets:
        raise ValueError("network has no weight layers to deploy")
    deployment = Deployment(network=network)
    rngs = iter(spawn_rngs(rng, len(targets)))
    for layer in targets:
        engine = CrossbarEngine(
            config,
            rng=next(rngs),
            collector=(
                collector.scope(f"engine/{layer.name}")
                if collector is not None
                else None
            ),
        )
        layer.engine = engine
        deployment.engines[layer.name] = engine
    return deployment
