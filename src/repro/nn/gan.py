"""GAN training — the three dataflows of Fig. 8, in software.

The trainer implements exactly the procedure the paper describes in
Sec. III-B-2:

* **Train D on real** (dataflow 1): real samples forward through D,
  loss with label '1', back-propagate, *store* derivatives.
* **Train D on fake** (dataflow 2): G maps noise to samples, they flow
  through D, loss with label '0', derivatives propagate back to D's
  first layer and are stored.  "G is used but not updated."
* **Update D**: the stored derivatives from (1) and (2) are summed and
  applied once (the paper's cycle T11).
* **Train G** (dataflow 3): like (2) but the loss uses the inaccurate
  label '1', the error propagates all the way back through D *into* G,
  and only G's weights update (T14) while D is fixed.

The trainer also offers the **computation-sharing** step of Fig. 9:
dataflows (2) and (3) share one forward pass; the two backward branches
use the same cached activations, which requires doubling intermediate
storage in hardware and, in software, simply re-using the caches before
any new forward pass invalidates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.losses import BinaryCrossEntropyWithLogits
from repro.nn.network import Sequential
from repro.nn.optim import Optimizer
from repro.utils.rng import RngLike, new_rng


@dataclass
class GANHistory:
    """Loss traces for both sub-networks."""

    d_losses_real: List[float] = field(default_factory=list)
    d_losses_fake: List[float] = field(default_factory=list)
    g_losses: List[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.g_losses)


class GANTrainer:
    """Co-trains a Generator and a Discriminator (Fig. 2 system)."""

    def __init__(
        self,
        generator: Sequential,
        discriminator: Sequential,
        g_optimizer: Optimizer,
        d_optimizer: Optimizer,
        noise_dim: int,
        rng: RngLike = None,
    ) -> None:
        if noise_dim <= 0:
            raise ValueError(f"noise_dim must be > 0, got {noise_dim}")
        self.generator = generator
        self.discriminator = discriminator
        self.g_optimizer = g_optimizer
        self.d_optimizer = d_optimizer
        self.noise_dim = noise_dim
        self.rng = new_rng(rng)
        self.loss = BinaryCrossEntropyWithLogits()
        self.history = GANHistory()

    # -- building blocks ---------------------------------------------------
    def sample_noise(self, batch: int) -> np.ndarray:
        """Uniform noise input for G (Sec. II-A-3)."""
        return self.rng.uniform(-1.0, 1.0, size=(batch, self.noise_dim))

    def generate(self, batch: int, training: bool = False) -> np.ndarray:
        """Run G on fresh noise."""
        return self.generator.forward(self.sample_noise(batch), training=training)

    def _d_loss_and_backward(
        self, samples: np.ndarray, label: float
    ) -> float:
        """Forward D, compute BCE at ``label``, back-propagate into D."""
        logits = self.discriminator.forward(samples, training=True)
        targets = np.full(logits.shape, label)
        value = self.loss.forward(logits, targets)
        self.discriminator.backward_params(self.loss.backward())
        return value

    # -- the three dataflows ------------------------------------------------
    def train_discriminator(self, real_samples: np.ndarray) -> float:
        """Dataflows (1) + (2) + the summed update at T11.

        Returns the mean of the real/fake loss values.
        """
        batch = real_samples.shape[0]
        self.discriminator.zero_grad()

        # (1) real samples, label '1'; derivatives stay accumulated.
        loss_real = self._d_loss_and_backward(real_samples, 1.0)

        # (2) generated samples, label '0'; "G is used but not updated",
        # so G runs in inference mode and receives no gradient.
        fake_samples = self.generate(batch, training=False)
        loss_fake = self._d_loss_and_backward(fake_samples, 0.0)

        # T11: stored derivatives from (1) and (2) are summed (they
        # accumulated in Parameter.grad) and applied once.
        self.d_optimizer.step()
        self.history.d_losses_real.append(loss_real)
        self.history.d_losses_fake.append(loss_fake)
        return 0.5 * (loss_real + loss_fake)

    def train_generator(self, batch: int) -> float:
        """Dataflow (3): inaccurate label '1', update only G (T14)."""
        self.generator.zero_grad()
        self.discriminator.zero_grad()  # D accumulates but is then discarded

        fake_samples = self.generate(batch, training=True)
        logits = self.discriminator.forward(fake_samples, training=True)
        targets = np.ones(logits.shape)
        value = self.loss.forward(logits, targets)
        grad_samples = self.discriminator.backward(self.loss.backward())
        self.generator.backward_params(grad_samples)

        # "The weights of G are updated ... while D is fixed": discard
        # whatever accumulated in D during this pass.
        self.discriminator.zero_grad()
        self.g_optimizer.step()
        self.history.g_losses.append(value)
        return value

    def train_step(self, real_samples: np.ndarray) -> tuple:
        """One full GAN iteration: update D, then update G."""
        d_loss = self.train_discriminator(real_samples)
        g_loss = self.train_generator(real_samples.shape[0])
        return d_loss, g_loss

    # -- computation sharing (Fig. 9) ----------------------------------------
    def train_step_shared(self, real_samples: np.ndarray) -> tuple:
        """One GAN iteration using ReGAN's computation sharing.

        Dataflows (2) and (3) share a single forward pass of G
        concatenated with D; the two backward branches reuse the same
        cached activations ("doubling the memory storage for
        intermediate computation").  Numerically this matches
        :meth:`train_step` up to the fact that D's fake-loss gradient
        is computed at the same weights — which is also true in the
        unshared version, so losses agree exactly for the D update and
        the G update sees the *pre-update* D rather than the post-update
        one (the paper's T11-vs-T14 ordering).
        """
        batch = real_samples.shape[0]

        # (1) real branch: accumulate into D.
        self.discriminator.zero_grad()
        loss_real = self._d_loss_and_backward(real_samples, 1.0)
        # Stash D's real-branch gradients so the shared fake pass can
        # add its own contribution afterwards.
        stored_real_grads = [p.grad.copy() for p in self.discriminator.parameters()]

        # Shared forward path T0-T6: G then D, both caching activations.
        self.generator.zero_grad()
        self.discriminator.zero_grad()
        fake_samples = self.generate(batch, training=True)
        logits = self.discriminator.forward(fake_samples, training=True)

        # Branch A (dataflow 3): label '1', gradient flows into G.
        loss_g = self.loss.forward(logits, np.ones(logits.shape))
        grad_into_samples = self.discriminator.backward(self.loss.backward())
        self.generator.backward_params(grad_into_samples)
        g_update_grads = [p.grad.copy() for p in self.generator.parameters()]
        self.discriminator.zero_grad()

        # Branch B (dataflow 2): label '0', gradient stays in D.  The
        # cached activations from the shared forward pass are re-used —
        # no second forward execution of G or D.
        loss_fake = self.loss.forward(logits, np.zeros(logits.shape))
        self.discriminator.backward_params(self.loss.backward())

        # T11: sum derivatives of (1) and (2), update D.
        for parameter, real_grad in zip(
            self.discriminator.parameters(), stored_real_grads
        ):
            parameter.grad += real_grad
        self.d_optimizer.step()

        # T14: update G from the branch-A gradients.
        for parameter, grad in zip(self.generator.parameters(), g_update_grads):
            np.copyto(parameter.grad, grad)
        self.g_optimizer.step()

        self.history.d_losses_real.append(loss_real)
        self.history.d_losses_fake.append(loss_fake)
        self.history.g_losses.append(loss_g)
        return 0.5 * (loss_real + loss_fake), loss_g

    # -- evaluation -----------------------------------------------------------
    def discriminator_scores(
        self, real_samples: np.ndarray, fake_batch: Optional[int] = None
    ) -> tuple:
        """Mean sigmoid score D assigns to real vs. generated samples."""
        fake_batch = fake_batch or real_samples.shape[0]
        real_logits = self.discriminator.forward(real_samples, training=False)
        fake = self.generate(fake_batch, training=False)
        fake_logits = self.discriminator.forward(fake, training=False)

        def sigmoid(values: np.ndarray) -> np.ndarray:
            return 1.0 / (1.0 + np.exp(-np.clip(values, -60, 60)))

        return (
            float(np.mean(sigmoid(real_logits))),
            float(np.mean(sigmoid(fake_logits))),
        )
