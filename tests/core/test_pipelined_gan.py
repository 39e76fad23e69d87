"""Tests: the executed GAN pipeline equals sequential GAN training."""

from collections import Counter

import numpy as np
import pytest

from repro.core.gan_pipeline import (
    d_training_cycles_pipelined,
    g_training_cycles_pipelined,
)
from repro.core.pipelined_gan import PipelinedGANTrainer, fix_vbn_references
from repro.core.schedule import simulate_gan_iteration
from repro.datasets import DatasetShape, make_gan_images
from repro.nn import (
    Adam,
    GANTrainer,
    build_dcgan_discriminator,
    build_dcgan_generator,
)


def build_pair(seed=1, noise_dim=8):
    generator = build_dcgan_generator(
        noise_dim=noise_dim, base_channels=4, image_channels=1,
        image_size=16, use_virtual_bn=True, rng=seed,
    )
    discriminator = build_dcgan_discriminator(
        base_channels=4, image_channels=1, image_size=16, rng=seed + 1
    )
    return generator, discriminator


@pytest.fixture
def setting(rng):
    real = make_gan_images(4, DatasetShape("t", 1, 16, 2), rng=6)
    fake_noise = rng.uniform(-1, 1, size=(4, 8))
    g_noise = rng.uniform(-1, 1, size=(4, 8))
    reference_noise = rng.uniform(-1, 1, size=(8, 8))
    return real, fake_noise, g_noise, reference_noise


class TestEquivalenceWithSequentialTrainer:
    def _sequential_reference(
        self, real, fake_noise, g_noise, reference_noise, seed=1
    ):
        """GANTrainer.train_step with the noise draws pinned."""
        generator, discriminator = build_pair(seed)
        fix_vbn_references(generator, reference_noise)
        trainer = GANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
            noise_dim=8,
            rng=0,
        )
        draws = iter([fake_noise, g_noise])
        trainer.sample_noise = lambda batch: next(draws).copy()
        d_loss, g_loss = trainer.train_step(real)
        return trainer, d_loss, g_loss

    def test_identical_weights_and_losses(self, setting):
        real, fake_noise, g_noise, reference_noise = setting
        reference, d_loss_ref, g_loss_ref = self._sequential_reference(
            real, fake_noise, g_noise, reference_noise
        )

        generator, discriminator = build_pair(1)
        fix_vbn_references(generator, reference_noise)
        pipelined = PipelinedGANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
        )
        result = pipelined.train_iteration(real, fake_noise, g_noise)

        assert 0.5 * (
            result["d_loss_real"] + result["d_loss_fake"]
        ) == pytest.approx(d_loss_ref, rel=1e-10)
        assert result["g_loss"] == pytest.approx(g_loss_ref, rel=1e-10)
        for ref, pipe in zip(
            reference.discriminator.parameters(),
            discriminator.parameters(),
        ):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)
        for ref, pipe in zip(
            reference.generator.parameters(), generator.parameters()
        ):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)

    def test_two_iterations_stay_identical(self, setting, rng):
        real, fake_noise, g_noise, reference_noise = setting
        fake2 = rng.uniform(-1, 1, size=(4, 8))
        g2 = rng.uniform(-1, 1, size=(4, 8))

        generator_r, discriminator_r = build_pair(2)
        fix_vbn_references(generator_r, reference_noise)
        reference = GANTrainer(
            generator_r,
            discriminator_r,
            Adam(generator_r.parameters(), lr=2e-4),
            Adam(discriminator_r.parameters(), lr=2e-4),
            noise_dim=8,
            rng=0,
        )
        draws = iter([fake_noise, g_noise, fake2, g2])
        reference.sample_noise = lambda batch: next(draws).copy()
        reference.train_step(real)
        reference.train_step(real)

        generator_p, discriminator_p = build_pair(2)
        fix_vbn_references(generator_p, reference_noise)
        pipelined = PipelinedGANTrainer(
            generator_p,
            discriminator_p,
            Adam(generator_p.parameters(), lr=2e-4),
            Adam(discriminator_p.parameters(), lr=2e-4),
        )
        pipelined.train_iteration(real, fake_noise, g_noise)
        pipelined.train_iteration(real, fake2, g2)

        for ref, pipe in zip(
            generator_r.parameters(), generator_p.parameters()
        ):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)


class TestCycleAccounting:
    def test_iteration_cycles_match_formulas(self, setting):
        real, fake_noise, g_noise, _ = setting
        generator, discriminator = build_pair(3)
        pipelined = PipelinedGANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
        )
        result = pipelined.train_iteration(real, fake_noise, g_noise)
        l_d, l_g, batch = pipelined.l_d, pipelined.l_g, 4
        expected = d_training_cycles_pipelined(
            l_d, l_g, batch
        ) + g_training_cycles_pipelined(l_d, l_g, batch)
        assert result["cycles"] == expected

    def test_schedule_is_the_simulators_event_table(self, setting):
        real, fake_noise, g_noise, _ = setting
        generator, discriminator = build_pair(3)
        pipelined = PipelinedGANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
        )
        pipelined.train_iteration(real, fake_noise, g_noise)
        expected = simulate_gan_iteration(3, 3, 4, "pipelined")
        assert Counter(pipelined.schedule.events) == Counter(
            expected.events
        )
        assert len(expected.events) == 122
        pipelined.schedule.validate()

    def test_stage_counts_match_specs(self):
        generator, discriminator = build_pair(4)
        pipelined = PipelinedGANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
        )
        # 16x16 DCGAN: G = project + 2 FCNN = 3 stages; D = 2 conv +
        # logit = 3 stages.
        assert pipelined.l_g == 3
        assert pipelined.l_d == 3

    def test_noise_batch_mismatch_rejected(self, setting):
        real, fake_noise, _, _ = setting
        generator, discriminator = build_pair(5)
        pipelined = PipelinedGANTrainer(
            generator,
            discriminator,
            Adam(generator.parameters(), lr=2e-4),
            Adam(discriminator.parameters(), lr=2e-4),
        )
        with pytest.raises(ValueError):
            pipelined.train_iteration(
                real, fake_noise, np.zeros((3, 8))
            )
