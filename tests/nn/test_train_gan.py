"""Tests for the training loops: classifier and GAN (Fig. 8 dataflows)."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    GANTrainer,
    SGD,
    TrainHistory,
    build_dcgan_discriminator,
    build_dcgan_generator,
    build_mlp,
    evaluate_classifier,
    iterate_batches,
    train_classifier,
)
from repro.datasets import MNIST_SHAPE, DatasetShape, make_gan_images


def tiny_gan(rng_seed=1, noise_dim=8):
    generator = build_dcgan_generator(
        noise_dim=noise_dim, base_channels=4, image_channels=1, image_size=16,
        rng=rng_seed,
    )
    discriminator = build_dcgan_discriminator(
        base_channels=4, image_channels=1, image_size=16, rng=rng_seed + 1
    )
    trainer = GANTrainer(
        generator,
        discriminator,
        Adam(generator.parameters(), lr=2e-4),
        Adam(discriminator.parameters(), lr=2e-4),
        noise_dim=noise_dim,
        rng=3,
    )
    return trainer


class TestIterateBatches:
    def test_covers_all_rows(self, rng):
        images = rng.normal(size=(10, 2))
        labels = np.arange(10)
        seen = []
        for batch_images, batch_labels in iterate_batches(images, labels, 3):
            seen.extend(batch_labels.tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_sizes(self, rng):
        images = rng.normal(size=(10, 2))
        sizes = [
            b.shape[0]
            for b, _ in iterate_batches(images, np.zeros(10, dtype=int), 4)
        ]
        assert sizes == [4, 4, 2]

    def test_shuffle_changes_order(self, rng):
        images = np.arange(20)[:, None].astype(float)
        labels = np.arange(20)
        ordered = [
            l.tolist() for _, l in iterate_batches(images, labels, 5)
        ]
        shuffled = [
            l.tolist()
            for _, l in iterate_batches(
                images, labels, 5, rng=np.random.default_rng(1)
            )
        ]
        assert ordered != shuffled

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            list(iterate_batches(rng.normal(size=(5, 2)), np.zeros(4), 2))


class TestTrainClassifier:
    def test_learns_separable_data(self, rng):
        inputs = rng.normal(size=(300, 2))
        labels = (inputs[:, 0] + inputs[:, 1] > 0).astype(int)
        net = build_mlp(2, (16,), 2, rng=1)
        history = train_classifier(
            net,
            SGD(net.parameters(), lr=0.1, momentum=0.9),
            inputs,
            labels,
            epochs=20,
            batch_size=32,
            rng=np.random.default_rng(0),
        )
        assert history.epoch_train_accuracy[-1] > 0.95

    def test_loss_decreases(self, rng):
        inputs = rng.normal(size=(200, 4))
        labels = (inputs[:, 0] > 0).astype(int)
        net = build_mlp(4, (8,), 2, rng=2)
        history = train_classifier(
            net, Adam(net.parameters(), lr=1e-2), inputs, labels,
            epochs=10, batch_size=25,
        )
        assert history.mean_loss(5) < history.batch_losses[0]

    def test_evaluate_empty_raises(self, rng):
        net = build_mlp(2, (4,), 2)
        with pytest.raises(ValueError):
            evaluate_classifier(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestTrainHistory:
    def test_mean_loss_over_last_batches(self):
        history = TrainHistory(batch_losses=[4.0, 2.0, 0.0])
        assert history.mean_loss(2) == 1.0
        assert history.mean_loss(10) == 2.0

    @pytest.mark.parametrize("last", [0, -1])
    def test_mean_loss_rejects_empty_or_negative_window(self, last):
        # batch_losses[-0:] is every batch and [-(-1):] drops the first.
        with pytest.raises(ValueError, match="last must be > 0"):
            TrainHistory(batch_losses=[4.0, 2.0, 0.0]).mean_loss(last)


class TestGANTrainer:
    def test_discriminator_update_changes_only_d(self, rng):
        trainer = tiny_gan()
        g_before = [p.value.copy() for p in trainer.generator.parameters()]
        real = make_gan_images(8, DatasetShape("t", 1, 16, 2), rng=5)
        trainer.train_discriminator(real)
        for parameter, before in zip(
            trainer.generator.parameters(), g_before
        ):
            np.testing.assert_array_equal(parameter.value, before)

    def test_generator_update_changes_only_g(self):
        trainer = tiny_gan()
        d_before = [p.value.copy() for p in trainer.discriminator.parameters()]
        g_before = [p.value.copy() for p in trainer.generator.parameters()]
        trainer.train_generator(8)
        for parameter, before in zip(
            trainer.discriminator.parameters(), d_before
        ):
            np.testing.assert_array_equal(parameter.value, before)
        assert any(
            not np.array_equal(parameter.value, before)
            for parameter, before in zip(
                trainer.generator.parameters(), g_before
            )
        )

    def test_history_records_all_losses(self):
        trainer = tiny_gan()
        real = make_gan_images(4, DatasetShape("t", 1, 16, 2), rng=5)
        trainer.train_step(real)
        trainer.train_step(real)
        assert len(trainer.history.d_losses_real) == 2
        assert len(trainer.history.d_losses_fake) == 2
        assert len(trainer.history.g_losses) == 2

    @staticmethod
    def _reference_shared_step(trainer, real, noise):
        """Fig. 9 schedule with *explicit recomputation* of the shared
        forward pass: the semantics computation sharing must preserve."""
        from repro.nn.losses import BinaryCrossEntropyWithLogits

        generator, discriminator = trainer.generator, trainer.discriminator
        loss = BinaryCrossEntropyWithLogits()
        # Dataflow (1): real samples, label '1'.
        discriminator.zero_grad()
        logits = discriminator.forward(real, training=True)
        loss_real = loss.forward(logits, np.ones(logits.shape))
        discriminator.backward(loss.backward())
        real_grads = [p.grad.copy() for p in discriminator.parameters()]
        # Branch A (dataflow 3, pre-update D): recomputed forward.
        generator.zero_grad()
        discriminator.zero_grad()
        fake = generator.forward(noise, training=True)
        logits = discriminator.forward(fake, training=True)
        loss_g = loss.forward(logits, np.ones(logits.shape))
        generator.backward(discriminator.backward(loss.backward()))
        g_grads = [p.grad.copy() for p in generator.parameters()]
        # Branch B (dataflow 2): recomputed forward again, label '0'.
        discriminator.zero_grad()
        fake = generator.forward(noise, training=True)
        logits = discriminator.forward(fake, training=True)
        loss_fake = loss.forward(logits, np.zeros(logits.shape))
        discriminator.backward(loss.backward())
        # T11: sum (1) + (2) derivatives, update D.
        for parameter, grad in zip(discriminator.parameters(), real_grads):
            parameter.grad += grad
        trainer.d_optimizer.step()
        # T14: update G.
        for parameter, grad in zip(generator.parameters(), g_grads):
            np.copyto(parameter.grad, grad)
        trainer.g_optimizer.step()
        return 0.5 * (loss_real + loss_fake), loss_g

    def test_shared_step_equals_explicit_recomputation(self):
        """Cache reuse in train_step_shared must equal re-running the
        shared forward pass explicitly: same losses, same weights."""
        trainer_a = tiny_gan(rng_seed=11)
        trainer_b = tiny_gan(rng_seed=11)
        real = make_gan_images(4, DatasetShape("t", 1, 16, 2), rng=6)
        noise = trainer_a.sample_noise(4)
        trainer_b.sample_noise(4)  # keep rng states aligned
        trainer_a.sample_noise = lambda batch: noise.copy()
        d_loss_a, g_loss_a = trainer_a.train_step_shared(real)
        d_loss_b, g_loss_b = self._reference_shared_step(
            trainer_b, real, noise
        )
        assert d_loss_a == pytest.approx(d_loss_b, rel=1e-10)
        assert g_loss_a == pytest.approx(g_loss_b, rel=1e-10)
        for pa, pb in zip(
            trainer_a.discriminator.parameters(),
            trainer_b.discriminator.parameters(),
        ):
            np.testing.assert_allclose(pa.value, pb.value, atol=1e-12)
        for pa, pb in zip(
            trainer_a.generator.parameters(),
            trainer_b.generator.parameters(),
        ):
            np.testing.assert_allclose(pa.value, pb.value, atol=1e-12)

    def test_shared_step_records_history(self):
        trainer = tiny_gan(rng_seed=15)
        real = make_gan_images(4, DatasetShape("t", 1, 16, 2), rng=9)
        trainer.train_step_shared(real)
        assert trainer.history.steps == 1

    def test_discriminator_learns_to_separate(self):
        trainer = tiny_gan(rng_seed=21)
        trainer.d_optimizer.lr = 2e-3
        real = make_gan_images(32, DatasetShape("t", 1, 16, 2), rng=8)
        for _ in range(60):
            trainer.train_discriminator(real)
        real_score, fake_score = trainer.discriminator_scores(real)
        assert real_score > fake_score + 0.2

    def test_noise_has_requested_dim(self):
        trainer = tiny_gan(noise_dim=8)
        assert trainer.sample_noise(5).shape == (5, 8)

    def test_rejects_bad_noise_dim(self):
        generator = build_dcgan_generator(noise_dim=8, base_channels=4, rng=1)
        discriminator = build_dcgan_discriminator(base_channels=4, rng=2)
        with pytest.raises(ValueError):
            GANTrainer(
                generator,
                discriminator,
                Adam(generator.parameters()),
                Adam(discriminator.parameters()),
                noise_dim=0,
            )
