"""The ReGAN accelerator model (Sec. III-B, Figs. 7-10).

Deploys a DCGAN (generator + discriminator) on ReRAM crossbars and
prices one training iteration under the four pipeline schemes of
Figs. 8-9 — the machinery behind Table I row 2.

Model assumptions (mirroring ReGAN [13]):

* FCNN layers map as their equivalent zero-inserted convolution
  (Fig. 7a), so their crossbar geometry is the ``Cin*k*k x Cout``
  matrix already encoded in :class:`~repro.workloads.specs.LayerSpec`.
* The iteration cycle counts come from
  :mod:`repro.core.gan_pipeline`; the cycle *time* is the slowest
  layer latency across both subnetworks.
* MVM sweep accounting per iteration (per batch element):

  - dataflow (1): D forward + D error backward + D weight-gradient
    = 3 D sweeps;
  - dataflow (2): 1 G forward + 3 D sweeps;
  - dataflow (3): G forward + D forward + D error backward (no dW) +
    G error backward + G weight-gradient = 2 D + 3 G sweeps.

  **Computation sharing** removes the duplicated forward pass of
  dataflows (2)/(3): minus one G forward and one D forward.
* **Spatial parallelism** duplicates D: twice the D arrays (static
  power, update writes) in exchange for hiding dataflow (1).
* D and G are each updated once per iteration; every cell of every
  copy is rewritten.

As in PipeLayer, one :meth:`ReGANModel._work` feeds both the energy
ledger and the event counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.components import (
    EnergyBreakdown,
    array_subcycle_energy,
    buffer_transfer_energy,
    static_power,
    weight_write_energy,
)
from repro.arch.gpu import GpuModel
from repro.arch.params import DEFAULT_TECH, XbarTechParams
from repro.core.gan_pipeline import SCHEME_COSTS, SCHEMES, iteration_cycles
from repro.core.mapping import LayerMapping, MappingConfig, balance_duplication
from repro.core.pipelayer import (
    TRAINING_ARRAY_FACTOR,
    record_events,
    sweep_work,
)
from repro.utils.validation import check_choice, check_positive
from repro.workloads.suite import NetworkSpec


@dataclass(frozen=True)
class ReGANReport:
    """Timing/energy of one GAN training iteration on ReGAN."""

    dataset: str
    scheme: str
    batch: int
    cycle_time: float
    cycles_per_iteration: int
    time_per_iteration: float
    energy_per_iteration: EnergyBreakdown
    total_arrays: int
    gpu_time_per_iteration: float
    gpu_energy_per_iteration: float

    @property
    def speedup(self) -> float:
        """ReGAN speedup over the GPU baseline."""
        return self.gpu_time_per_iteration / self.time_per_iteration

    @property
    def energy_saving(self) -> float:
        """GPU energy / ReGAN energy per iteration."""
        return self.gpu_energy_per_iteration / self.energy_per_iteration.total

    def summary(self) -> str:
        return (
            f"{self.dataset} [{self.scheme}, B={self.batch}]: "
            f"{self.cycles_per_iteration} cycles x "
            f"{self.cycle_time * 1e6:.2f}us = "
            f"{self.time_per_iteration * 1e3:.3f} ms/iter; "
            f"speedup {self.speedup:.1f}x, "
            f"energy saving {self.energy_saving:.1f}x"
        )


class ReGANModel:
    """ReGAN deployed for one (G, D) pair under an array budget."""

    def __init__(
        self,
        generator: NetworkSpec,
        discriminator: NetworkSpec,
        array_budget: int = 262144,
        scheme: str = "sp_cs",
        tech: XbarTechParams = DEFAULT_TECH,
        mapping_config: Optional[MappingConfig] = None,
        gpu: Optional[GpuModel] = None,
        dataset: str = "gan",
    ) -> None:
        check_positive("array_budget", array_budget)
        check_choice("scheme", scheme, SCHEMES)
        self.generator = generator
        self.discriminator = discriminator
        self.scheme = scheme
        self.tech = tech
        self.config = mapping_config or MappingConfig()
        self.gpu = gpu or GpuModel()
        self.dataset = dataset
        self.d_copies = SCHEME_COSTS[scheme].d_copies
        self.storage_factor = SCHEME_COSTS[scheme].intermediate_storage_factor

        # Split the forward-copy budget between G and D in proportion to
        # their single-copy footprints, accounting for training
        # transposes and SP's duplicate of D.
        forward_budget = array_budget // TRAINING_ARRAY_FACTOR
        g_single = self._single_copy_arrays(generator)
        d_single = self._single_copy_arrays(discriminator) * self.d_copies
        total_single = g_single + d_single
        g_budget = max(g_single, forward_budget * g_single // total_single)
        d_budget = max(
            d_single, (forward_budget - g_budget)
        ) // self.d_copies
        self.g_mappings: Dict[str, LayerMapping] = balance_duplication(
            generator, g_budget, self.config
        )
        self.d_mappings: Dict[str, LayerMapping] = balance_duplication(
            discriminator, d_budget, self.config
        )

    def _single_copy_arrays(self, network: NetworkSpec) -> int:
        """Arrays for one unduplicated copy of a network."""
        return sum(
            LayerMapping(layer, self.config, 1).total_arrays
            for layer in network.matrix_layers
        )

    # -- structure ------------------------------------------------------------
    @property
    def total_arrays(self) -> int:
        """Deployed arrays: G + (copies of) D, with training transposes."""
        g_arrays = sum(m.total_arrays for m in self.g_mappings.values())
        d_arrays = sum(m.total_arrays for m in self.d_mappings.values())
        return TRAINING_ARRAY_FACTOR * (g_arrays + d_arrays * self.d_copies)

    @property
    def cycle_time(self) -> float:
        """Slowest layer latency across both subnetworks."""
        worst = max(
            m.subcycles_per_image
            for mappings in (self.g_mappings, self.d_mappings)
            for m in mappings.values()
        )
        return worst * self.tech.subcycle_time

    # -- timing ------------------------------------------------------------------
    def cycles_per_iteration(self, batch: int) -> int:
        """Fig. 8/9 cycle count for one iteration under the scheme."""
        return iteration_cycles(
            self.discriminator.depth, self.generator.depth, batch, self.scheme
        )

    def time_per_iteration(self, batch: int) -> float:
        """Wall time of one GAN training iteration."""
        return self.cycles_per_iteration(batch) * self.cycle_time

    # -- work and energy --------------------------------------------------------
    def _work(self):
        """``(g_sweeps, d_sweeps, g_work, d_work, cells)`` of one iteration.

        The sweep counts are MVM sweeps of G and D per batch element
        (the dataflow accounting in the module docstring);
        ``g_work``/``d_work`` are each subnetwork's :func:`sweep_work`;
        ``cells`` is the once-per-iteration update of every copy.
        """
        g_sweeps = 1.0 + 3.0  # dataflow (2) forward + dataflow (3)
        d_sweeps = 3.0 + 3.0 + 2.0  # dataflows (1) + (2) + (3)
        if self.scheme in ("cs", "sp_cs"):
            g_sweeps -= 1.0  # shared G forward of dataflows (2)/(3)
            d_sweeps -= 1.0  # shared D forward
        g_work = sweep_work(self.g_mappings, self.config)
        d_work = sweep_work(self.d_mappings, self.config)
        cells = TRAINING_ARRAY_FACTOR * (g_work[2] + d_work[2] * self.d_copies)
        return g_sweeps, d_sweeps, g_work, d_work, cells

    def static_power_watts(self) -> float:
        """Always-on chip power."""
        return static_power(self.tech, self.total_arrays)

    def energy_per_iteration(self, batch: int) -> EnergyBreakdown:
        """Full energy ledger of one training iteration."""
        check_positive("batch", batch)
        sg, sd, (g_act, g_bits, _), (d_act, d_bits, _), cells = self._work()
        ps = array_subcycle_energy(
            self.tech, self.config.array_rows, self.config.array_cols
        )
        return EnergyBreakdown(
            mvm=batch * (sg * (g_act * ps) + sd * (d_act * ps)),
            buffer=batch * self.storage_factor * (
                sg * buffer_transfer_energy(self.tech, g_bits)
                + sd * buffer_transfer_energy(self.tech, d_bits)
            ),
            weight_write=weight_write_energy(self.tech, cells),
            static=self.static_power_watts() * self.time_per_iteration(batch),
        )

    def record_event_counters(self, tel, batch: int = 32) -> None:
        """Emit one training iteration's work as physical event counters.

        The :meth:`_work` that :meth:`energy_per_iteration` prices, so
        pricing the counters through
        :func:`repro.arch.components.event_costs` reconstructs
        :meth:`energy_per_iteration` exactly.
        """
        check_positive("batch", batch)
        sg, sd, (g_act, g_bits, _), (d_act, d_bits, _), cells = self._work()
        record_events(
            tel,
            self.config,
            reads=batch * (sg * g_act + sd * d_act),
            bits=batch * self.storage_factor * (sg * g_bits + sd * d_bits),
            cell_writes=cells,
            arrays=self.total_arrays,
            occupancy=self.time_per_iteration(batch) / self.tech.subcycle_time,
        )

    # -- comparison ------------------------------------------------------------------
    def report(self, batch: int = 32) -> ReGANReport:
        """Full comparison record against the GPU baseline."""
        check_positive("batch", batch)
        return ReGANReport(
            dataset=self.dataset,
            scheme=self.scheme,
            batch=batch,
            cycle_time=self.cycle_time,
            cycles_per_iteration=self.cycles_per_iteration(batch),
            time_per_iteration=self.time_per_iteration(batch),
            energy_per_iteration=self.energy_per_iteration(batch),
            total_arrays=self.total_arrays,
            gpu_time_per_iteration=self.gpu.gan_iteration_time(
                self.generator, self.discriminator, batch
            ),
            gpu_energy_per_iteration=self.gpu.gan_iteration_energy(
                self.generator, self.discriminator, batch
            ),
        )
