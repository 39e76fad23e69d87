"""Functional execution of ReGAN's GAN training pipeline (Fig. 8).

The GAN analogue of :mod:`repro.core.pipelined_trainer`: each of the
three dataflows is a *stage program* from
:func:`repro.core.schedule.gan_programs` — forward stages through G
and/or D, a loss stage, backward stages — and
:func:`~repro.core.pipelined_trainer.run_wavefront` pushes a batch
through it as a pipeline wavefront, a new sample entering every cycle,
with per-(sample, stage) cache stashing and frozen weights.  The D
update fires one cycle after dataflow (2) drains (the paper's
T11-equivalent), the G update after dataflow (3) (T14).

The point, as with the DNN pipeline, is a proof by execution: the
pipelined iteration trains the same weights as the sequential
:class:`~repro.nn.gan.GANTrainer` step given the same noise, to within
float rounding (per-sample gradients are summed one at a time) — the
correctness property behind ReGAN's cycle counts.  Its ``schedule`` is
the event table :func:`repro.core.schedule.simulate_gan_iteration`
builds for the ``pipelined`` scheme.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.gan_pipeline import iteration_cycles
from repro.core.pipelined_trainer import group_into_stages, run_wavefront
from repro.core.schedule import ScheduleResult, gan_programs, update_event
from repro.nn.losses import BinaryCrossEntropyWithLogits
from repro.nn.network import Sequential
from repro.nn.optim import Optimizer
from repro.utils.validation import check_positive


def fix_vbn_references(
    generator: Sequential, reference_noise: np.ndarray
) -> None:
    """Fix the generator's virtual-batch-norm statistics up front.

    ReGAN: "The reference batch is chosen once and fixed at the start
    of training" (Sec. III-B-4).  Pipelined execution *requires* this —
    a VBN layer that lazily adopts its first input would see a single
    in-flight sample rather than a batch.  Run once, before training,
    with the chosen reference noise; both the pipelined and sequential
    trainers then normalise identically.
    """
    generator.forward(
        np.asarray(reference_noise, dtype=np.float64), training=True
    )


class PipelinedGANTrainer:
    """Executes one GAN training iteration as Fig. 8's pipelines.

    ``schedule`` holds the event table of the latest iteration.
    """

    def __init__(
        self,
        generator: Sequential,
        discriminator: Sequential,
        g_optimizer: Optimizer,
        d_optimizer: Optimizer,
    ) -> None:
        self.generator = generator
        self.discriminator = discriminator
        self.g_optimizer = g_optimizer
        self.d_optimizer = d_optimizer
        self.stages = {
            "G": group_into_stages(generator),
            "D": group_into_stages(discriminator),
        }
        self.programs = gan_programs(self.l_d, self.l_g)
        self.schedule = ScheduleResult([], 0, scheme="pipelined")

    @property
    def l_g(self) -> int:
        return len(self.stages["G"])

    @property
    def l_d(self) -> int:
        return len(self.stages["D"])

    def train_iteration(
        self,
        real_samples: np.ndarray,
        fake_noise: np.ndarray,
        g_noise: np.ndarray,
    ) -> Dict[str, float]:
        """One full iteration: dataflows (1), (2), D update, (3), G update.

        ``fake_noise`` feeds dataflow (2), ``g_noise`` dataflow (3)
        (pass the same array to emulate computation sharing's single
        draw).  Returns the mean losses and the total cycle count,
        which equals the paper's pipelined formula
        ``(2L_D + B) + (L_G + 2L_D + B) + 1 + (2L_G + 2L_D + B + 1)``.
        """
        batch = real_samples.shape[0]
        check_positive("batch", batch)
        if fake_noise.shape[0] != batch or g_noise.shape[0] != batch:
            raise ValueError("noise batches must match the real batch")
        schedule = ScheduleResult([], batch, scheme="pipelined")
        loss = BinaryCrossEntropyWithLogits()

        def phase(
            dataflow: str, inputs: np.ndarray, label: float, start: int
        ) -> Tuple[List[float], int]:
            return run_wavefront(
                self.programs[dataflow], self.stages, inputs, loss, label,
                schedule.events, start, dataflow,
            )

        # Dataflow (1): real samples, derivatives accumulate in D.
        self.discriminator.zero_grad()
        real_losses, cycle = phase("d_real", real_samples, 1.0, 0)
        # Dataflow (2): generated samples; G accumulates nothing (its
        # backward is never invoked).
        fake_losses, cycle = phase("d_fake", fake_noise, 0.0, cycle)
        # T11: one cycle to update D from the summed derivatives.
        self.d_optimizer.step()
        schedule.events.append(update_event(cycle, "D update"))

        # Dataflow (3): G trained through a fixed D.
        self.generator.zero_grad()
        self.discriminator.zero_grad()
        g_losses, cycle = phase("g_train", g_noise, 1.0, cycle + 1)
        self.discriminator.zero_grad()  # D stays fixed
        self.g_optimizer.step()
        schedule.events.append(update_event(cycle, "G update"))

        self.schedule = schedule
        expected = iteration_cycles(self.l_d, self.l_g, batch, "pipelined")
        if schedule.makespan != expected:
            raise AssertionError(
                f"iteration consumed {schedule.makespan} cycles, formula "
                f"says {expected}"
            )
        return {
            "d_loss_real": float(np.mean(real_losses)),
            "d_loss_fake": float(np.mean(fake_losses)),
            "g_loss": float(np.mean(g_losses)),
            "cycles": schedule.makespan,
        }
