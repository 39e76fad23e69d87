"""The paper's primary contribution: PipeLayer and ReGAN models.

Data mapping (Fig. 4), inter-layer pipelines (Fig. 5), FCNN mapping
(Fig. 7), GAN training pipelines (Figs. 8-9), the accelerator cost
models behind Table I, and the compiler that runs live networks through
the crossbar simulator.

This package re-exports only the *curated* high-level surface: the
accelerator models, the Table I estimator, the network compiler, and
crossbar-in-the-loop training.  Lower-level building blocks (mapping
arithmetic, pipeline cycle formulas, schedule simulators, trace
rendering, ...) live in their defining submodules — import them from
there (``repro.core.mapping``, ``repro.core.pipeline``, ...).
"""

from __future__ import annotations

from repro.core.compiler import Deployment, deploy_network, spec_from_network
from repro.core.estimator import (
    PAPER_PIPELAYER_ENERGY,
    PAPER_PIPELAYER_SPEEDUP,
    PAPER_REGAN_ENERGY,
    PAPER_REGAN_SPEEDUP,
    PIPELAYER_ARRAY_BUDGET,
    REGAN_ARRAY_BUDGET,
    TableOneRow,
    geometric_mean,
    pipelayer_table1,
    regan_table1,
)
from repro.core.pipelayer import PipeLayerModel, PipeLayerReport
from repro.core.regan import ReGANModel, ReGANReport
from repro.core.training_sim import (
    CrossbarTrainingResult,
    NoiseAwareComparison,
    compare_noise_aware,
    train_on_crossbar,
)

__all__ = [
    "Deployment",
    "deploy_network",
    "spec_from_network",
    "TableOneRow",
    "geometric_mean",
    "pipelayer_table1",
    "regan_table1",
    "PAPER_PIPELAYER_SPEEDUP",
    "PAPER_PIPELAYER_ENERGY",
    "PAPER_REGAN_SPEEDUP",
    "PAPER_REGAN_ENERGY",
    "PIPELAYER_ARRAY_BUDGET",
    "REGAN_ARRAY_BUDGET",
    "PipeLayerModel",
    "PipeLayerReport",
    "ReGANModel",
    "ReGANReport",
    "CrossbarTrainingResult",
    "NoiseAwareComparison",
    "train_on_crossbar",
    "compare_noise_aware",
]
