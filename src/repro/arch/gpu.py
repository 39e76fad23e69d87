"""Analytic roofline model of the baseline GPU (GTX 1080).

The paper's Table I reports speedup and energy saving *relative to* a
GTX 1080 running the same workloads (Sec. III-C).  Without the physical
card, we model it with a per-layer roofline: a layer takes the larger
of its compute time (FLOPs over achievable FLOP/s) and its memory time
(bytes moved over DRAM bandwidth), plus a kernel-launch overhead;
energy is board power times time.  This keeps exactly the two regimes
that decide who wins in the papers' analyses — compute-bound
convolutions and bandwidth-bound FC layers — which is what the
reproduction needs to preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import GTX1080, GpuParams
from repro.utils.validation import check_positive
from repro.workloads.specs import LayerSpec
from repro.workloads.suite import NetworkSpec

#: Backward work per layer relative to forward: grad-input + grad-weight
#: are each one convolution-sized job.
BACKWARD_FLOP_FACTOR = 2.0


@dataclass(frozen=True)
class GpuLayerTiming:
    """Roofline breakdown for one layer at one batch size."""

    name: str
    compute_time: float
    memory_time: float
    overhead: float

    @property
    def time(self) -> float:
        """Layer wall time: roofline max plus launch overhead."""
        return max(self.compute_time, self.memory_time) + self.overhead

    @property
    def bound(self) -> str:
        """Which roofline leg dominates."""
        return "compute" if self.compute_time >= self.memory_time else "memory"


class GpuModel:
    """Roofline timing and energy for a network on the baseline GPU."""

    def __init__(self, params: GpuParams = GTX1080) -> None:
        self.params = params

    # -- per layer ---------------------------------------------------------
    def layer_timing(
        self, layer: LayerSpec, batch: int, training: bool = False
    ) -> GpuLayerTiming:
        """Roofline timing of one layer over a batch.

        Weights are read once per batch; activations move per image.
        Training multiplies compute by ``1 + BACKWARD_FLOP_FACTOR`` and
        roughly doubles activation traffic (outputs and their errors).
        """
        check_positive("batch", batch)
        params = self.params
        flops = float(layer.flops) * batch
        activation_values = (layer.input_size + layer.output_size) * batch
        weight_values = layer.weight_count
        if training:
            flops *= 1.0 + BACKWARD_FLOP_FACTOR
            activation_values *= 2
            weight_values *= 2  # read for forward, written at update
        compute_time = flops / (
            params.peak_flops * params.utilization_for(layer.kind)
        )
        bytes_moved = params.bytes_per_value * (
            activation_values + weight_values
        )
        memory_time = bytes_moved / params.memory_bandwidth
        return GpuLayerTiming(
            name=layer.name or layer.kind,
            compute_time=compute_time,
            memory_time=memory_time,
            overhead=params.kernel_launch_overhead,
        )

    # -- per network ----------------------------------------------------------
    def network_time(
        self, network: NetworkSpec, batch: int, training: bool = False
    ) -> float:
        """Wall time for one batch through the whole network."""
        return sum(
            self.layer_timing(layer, batch, training).time
            for layer in network.layers
        )

    def time_per_image(
        self, network: NetworkSpec, batch: int, training: bool = False
    ) -> float:
        """Amortised time per image at the given batch size."""
        return self.network_time(network, batch, training) / batch

    def energy_per_image(
        self, network: NetworkSpec, batch: int, training: bool = False
    ) -> float:
        """Board energy per image (power x time)."""
        return self.time_per_image(network, batch, training) * (
            self.params.board_power
        )

    def throughput(
        self, network: NetworkSpec, batch: int, training: bool = False
    ) -> float:
        """Images per second."""
        return 1.0 / self.time_per_image(network, batch, training)

    # -- GAN training -----------------------------------------------------------
    def gan_iteration_time(
        self,
        generator: NetworkSpec,
        discriminator: NetworkSpec,
        batch: int,
    ) -> float:
        """One GAN training iteration (Fig. 8's three dataflows).

        Train D on real (D fwd+bwd), train D on fake (G fwd, D
        fwd+bwd), train G (G fwd+bwd, D fwd+bwd) — the standard
        sequential GPU schedule with no cross-phase overlap.
        """
        d_train = self.network_time(discriminator, batch, training=True)
        g_forward = self.network_time(generator, batch, training=False)
        g_train = self.network_time(generator, batch, training=True)
        phase1 = d_train
        phase2 = g_forward + d_train
        phase3 = g_train + self.network_time(
            discriminator, batch, training=True
        )
        return phase1 + phase2 + phase3

    def gan_iteration_energy(
        self,
        generator: NetworkSpec,
        discriminator: NetworkSpec,
        batch: int,
    ) -> float:
        """Board energy of one GAN training iteration."""
        return (
            self.gan_iteration_time(generator, discriminator, batch)
            * self.params.board_power
        )
