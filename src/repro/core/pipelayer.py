"""The PipeLayer accelerator model (Sec. III-A, Figs. 4-6).

Combines the Fig. 4 data mapping, the Fig. 5 inter-layer pipeline and
the technology table into end-to-end timing and energy for training and
testing, compared against the GPU roofline baseline — the machinery
behind Table I row 1.

Model assumptions (each mirrors a statement in the paper or in
PipeLayer [12]; see DESIGN.md):

* The pipeline **cycle time** is the slowest layer's compute latency:
  ``passes x activation_bits x subcycle_time``.  Balancing duplication
  ``X`` across layers (Fig. 4b) is what keeps this small.
* **Training** stores a transposed copy of each weight matrix for error
  back-propagation (doubling crossbar arrays) and performs three MVM
  waves per image per layer: forward, error backward, and
  weight-gradient computation.
* **Intermediate results** live in memory subarrays (Fig. 6): every
  activation (and, in training, every error) is written and read once
  per layer boundary at ``activation_bits`` per value; word-line drive
  re-reads inputs once per output vector.
* **Weight updates** rewrite every cell of every copy once per batch.
* **Static power** scales with deployed arrays (always-on ADC share,
  sense amplifiers, decoders) plus a controller constant.

Work is counted once (:func:`sweep_work`, :meth:`PipeLayerModel._work`)
and read by both the energy ledger and the event counters
(:func:`record_events`); ReGAN reuses both helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.components import (
    EnergyBreakdown,
    array_subcycle_energy,
    buffer_transfer_energy,
    static_power,
    weight_write_energy,
)
from repro.arch.gpu import GpuModel
from repro.arch.params import DEFAULT_TECH, XbarTechParams
from repro.core.mapping import LayerMapping, MappingConfig, balance_duplication
from repro.core.pipeline import training_cycles_per_batch_pipelined
from repro.utils.validation import check_positive
from repro.workloads.suite import NetworkSpec

#: Extra array copies held for training (forward matrix + transpose).
TRAINING_ARRAY_FACTOR = 2
#: MVM waves per image per layer in training (fwd, error bwd, dW).
TRAINING_MVM_FACTOR = 3
#: Accumulator width written back to memory subarrays per value.
ACCUMULATOR_BITS = 16


def sweep_work(
    mappings: Dict[str, LayerMapping], config: MappingConfig
) -> Tuple[int, int, int]:
    """``(array activations, buffer bits, cells)`` of one MVM sweep.

    Buffer bits are the word-line drive reads (every input re-read
    once per output vector) plus the accumulator-width result writes;
    cells are the programmed weight cells of every copy.
    """
    activations = bits = cells = 0
    for m in mappings.values():
        activations += m.array_activations_per_image
        bits += (
            m.layer.output_vectors
            * m.layer.matrix_rows
            * config.activation_bits
            + m.layer.output_size * ACCUMULATOR_BITS
        )
        cells += m.cells
    return activations, bits, cells


def record_events(
    tel,
    config: MappingConfig,
    reads: float,
    bits: float,
    cell_writes: float,
    arrays: int,
    occupancy: float,
) -> None:
    """Write an analytic model's work in the crossbar engine's event grammar.

    ``array_reads`` fan out into ``dac.line_fires`` (one per word
    line), ``adc.samples`` and ``shift_adds`` (one per bit line);
    ``occupancy`` is the makespan in sub-cycles, during which every
    deployed array and the controller burn static power.  A zero
    ``cell_writes`` (inference) emits no counter.
    """
    tel.count("array_reads", reads)
    tel.count("dac.line_fires", reads * config.array_rows)
    tel.count("adc.samples", reads * config.array_cols)
    tel.count("shift_adds", reads * config.array_cols)
    tel.count("buffer.bits", bits)
    if cell_writes:
        tel.count("cell_writes", cell_writes)
    tel.count("static.array_subcycles", arrays * occupancy)
    tel.count("static.controller_subcycles", occupancy)


@dataclass(frozen=True)
class PipeLayerReport:
    """Timing/energy results for one network on PipeLayer."""

    network: str
    mode: str
    batch: int
    cycle_time: float
    time_per_image: float
    energy_per_image: EnergyBreakdown
    total_arrays: int
    gpu_time_per_image: float
    gpu_energy_per_image: float

    @property
    def throughput(self) -> float:
        """Images per second."""
        return 1.0 / self.time_per_image

    @property
    def speedup(self) -> float:
        """PipeLayer speedup over the GPU baseline."""
        return self.gpu_time_per_image / self.time_per_image

    @property
    def energy_saving(self) -> float:
        """GPU energy / PipeLayer energy per image."""
        return self.gpu_energy_per_image / self.energy_per_image.total

    def summary(self) -> str:
        energy = self.energy_per_image
        return (
            f"{self.network} [{self.mode}, B={self.batch}]: "
            f"cycle={self.cycle_time * 1e6:.2f}us, "
            f"{self.throughput:,.0f} img/s, "
            f"{energy.total * 1e3:.3f} mJ/img "
            f"(mvm {energy.mvm * 1e3:.3f}, buf {energy.buffer * 1e3:.3f}, "
            f"wr {energy.weight_write * 1e3:.3f}, "
            f"static {energy.static * 1e3:.3f}); "
            f"speedup {self.speedup:.1f}x, energy saving "
            f"{self.energy_saving:.1f}x"
        )


class PipeLayerModel:
    """PipeLayer deployed for one network under an array budget."""

    def __init__(
        self,
        network: NetworkSpec,
        array_budget: int = 65536,
        tech: XbarTechParams = DEFAULT_TECH,
        mapping_config: Optional[MappingConfig] = None,
        gpu: Optional[GpuModel] = None,
        training_arrays: bool = True,
    ) -> None:
        check_positive("array_budget", array_budget)
        self.network = network
        self.tech = tech
        self.config = mapping_config or MappingConfig()
        self.gpu = gpu or GpuModel()
        self.training_arrays = training_arrays
        # Balance duplication under the *compute* share of the budget;
        # training holds a transposed copy of everything, halving the
        # share available to forward copies.
        forward_budget = array_budget // (
            TRAINING_ARRAY_FACTOR if training_arrays else 1
        )
        self.mappings: Dict[str, LayerMapping] = balance_duplication(
            network, forward_budget, self.config
        )

    # -- structure ------------------------------------------------------------
    @property
    def forward_arrays(self) -> int:
        """Arrays holding forward weight copies."""
        return sum(m.total_arrays for m in self.mappings.values())

    @property
    def total_arrays(self) -> int:
        """All deployed arrays (incl. training transposes)."""
        factor = TRAINING_ARRAY_FACTOR if self.training_arrays else 1
        return self.forward_arrays * factor

    @property
    def cycle_time(self) -> float:
        """Pipeline cycle: the slowest layer's bit-serial latency."""
        worst = max(
            m.subcycles_per_image for m in self.mappings.values()
        )
        return worst * self.tech.subcycle_time

    # -- timing ------------------------------------------------------------------
    def training_time_per_image(self, batch: int) -> float:
        """Amortised training time per example."""
        cycles = training_cycles_per_batch_pipelined(
            self.network.depth, batch
        )
        return cycles * self.cycle_time / batch

    def inference_time_per_image(self) -> float:
        """Steady-state pipelined inference: one image per cycle."""
        return self.cycle_time

    def time_per_image(self, batch: int, training: bool) -> float:
        """Per-image time in the given mode."""
        if training:
            return self.training_time_per_image(batch)
        return self.inference_time_per_image()

    # -- work and energy --------------------------------------------------------
    def _work(
        self, batch: int, training: bool
    ) -> Tuple[int, int, int, int, float]:
        """Per-image ``(waves, activations, bits, cells, seconds)``.

        ``bits`` covers every wave (errors retrace the forward traffic);
        ``cells`` is the per-batch weight update, 0 in inference.
        """
        check_positive("batch", batch)
        waves = TRAINING_MVM_FACTOR if training else 1
        activations, bits, cells = sweep_work(self.mappings, self.config)
        if self.training_arrays:
            cells *= TRAINING_ARRAY_FACTOR
        return (
            waves,
            activations,
            bits * waves,
            cells if training else 0,
            self.time_per_image(batch, training),
        )

    def static_power_watts(self) -> float:
        """Always-on chip power for the deployed arrays."""
        return static_power(self.tech, self.total_arrays)

    def energy_per_image(self, batch: int, training: bool) -> EnergyBreakdown:
        """Full per-image energy ledger."""
        waves, activations, bits, cells, seconds = self._work(batch, training)
        per_subcycle = array_subcycle_energy(
            self.tech, self.config.array_rows, self.config.array_cols
        )
        return EnergyBreakdown(
            mvm=activations * per_subcycle * waves,
            buffer=buffer_transfer_energy(self.tech, bits),
            weight_write=weight_write_energy(self.tech, cells) / batch,
            static=self.static_power_watts() * seconds,
        )

    def record_event_counters(
        self, tel, batch: int = 32, training: bool = True
    ) -> None:
        """Emit this model's per-image work as physical event counters.

        The :meth:`_work` that :meth:`energy_per_image` prices, per
        image, so pricing the counters through
        :func:`repro.arch.components.event_costs` reconstructs
        :meth:`energy_per_image` exactly.  Counters may be fractional
        (weight-update cells amortised over the batch).
        """
        waves, activations, bits, cells, seconds = self._work(batch, training)
        record_events(
            tel,
            self.config,
            reads=activations * waves,
            bits=bits,
            cell_writes=cells / batch,
            arrays=self.total_arrays,
            occupancy=seconds / self.tech.subcycle_time,
        )

    # -- comparison ------------------------------------------------------------------
    def report(self, batch: int = 32, training: bool = True) -> PipeLayerReport:
        """Full comparison record against the GPU baseline."""
        return PipeLayerReport(
            network=self.network.name,
            mode="training" if training else "inference",
            batch=batch,
            cycle_time=self.cycle_time,
            time_per_image=self.time_per_image(batch, training),
            energy_per_image=self.energy_per_image(batch, training),
            total_arrays=self.total_arrays,
            gpu_time_per_image=self.gpu.time_per_image(
                self.network, batch, training
            ),
            gpu_energy_per_image=self.gpu.energy_per_image(
                self.network, batch, training
            ),
        )
