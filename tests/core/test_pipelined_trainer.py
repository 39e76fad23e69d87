"""Tests: the executed training pipeline equals batched training.

The load-bearing property of PipeLayer's Fig. 5 pipeline: because no
dependency exists among the inputs of a batch, processing them as a
pipeline wavefront with frozen weights and a single end-of-batch update
must train the weights of conventional batched training (to within
float rounding: the pipeline sums per-input gradients one at a time).
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

import repro.nn.layers.conv as conv

from repro.core.pipeline import training_cycles_per_batch_pipelined
from repro.core.pipelined_trainer import (
    PipelinedTrainer,
    group_into_stages,
    run_wavefront,
)
from repro.core.schedule import PIPE, simulate_training_pipeline
from repro.core.trace import occupancy_profile
from repro.datasets.synthetic import make_train_test
from repro.nn import (
    SGD,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    build_mlp,
    build_mnist_cnn,
)


def make_pair(builder, seed):
    """Two identical networks (same seed) for the two training regimes."""
    return builder(seed), builder(seed)


def mlp_builder(seed):
    return build_mlp(6, (8,), 3, rng=seed)


class TestStageGrouping:
    def test_mlp_stages(self):
        network = build_mlp(4, (8, 8), 2)
        stages = group_into_stages(network)
        assert len(stages) == 3  # three Dense layers
        assert all(isinstance(stage[0], Dense) for stage in stages)

    def test_cnn_stages_fold_peripherals(self):
        network = build_mnist_cnn()
        stages = group_into_stages(network)
        assert len(stages) == 4  # conv, conv, fc, fc
        # The pool layers ride with their convolutions.
        assert any(
            any(isinstance(layer, MaxPool2D) for layer in stage)
            for stage in stages[:2]
        )
        # Flatten rides with the following... no — with the preceding
        # stage (it has no weights), so fc stages start with Dense.
        assert isinstance(stages[2][-1], Dense) or isinstance(
            stages[2][0], Dense
        )

    def test_stateless_only_network_rejected(self):
        with pytest.raises(ValueError):
            group_into_stages(Sequential([ReLU(), Flatten()]))

    def test_all_layers_covered_once(self):
        network = build_mnist_cnn()
        stages = group_into_stages(network)
        flattened = [layer for stage in stages for layer in stage]
        assert flattened == network.layers


class TestNumericalEquivalence:
    def _run_both(self, builder, inputs, labels, batch, lr=0.1, steps=1):
        reference, pipelined = make_pair(builder, seed=3)
        loss_ref = SoftmaxCrossEntropy()
        opt_ref = SGD(reference.parameters(), lr=lr)
        for step in range(steps):
            lo = step * batch % inputs.shape[0]
            reference.zero_grad()
            reference.train_step(
                inputs[lo : lo + batch], labels[lo : lo + batch], loss_ref
            )
            opt_ref.step()

        trainer = PipelinedTrainer(
            pipelined, SGD(pipelined.parameters(), lr=lr),
            SoftmaxCrossEntropy(),
        )
        for step in range(steps):
            lo = step * batch % inputs.shape[0]
            pipelined.zero_grad()
            trainer.train_batch(
                inputs[lo : lo + batch], labels[lo : lo + batch]
            )
        return reference, pipelined, trainer

    def test_single_batch_identical_weights(self, rng):
        inputs = rng.normal(size=(8, 6))
        labels = rng.integers(0, 3, size=8)
        reference, pipelined, _ = self._run_both(
            mlp_builder, inputs, labels, batch=8
        )
        for ref, pipe in zip(reference.parameters(), pipelined.parameters()):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)

    def test_multiple_batches_identical_weights(self, rng):
        inputs = rng.normal(size=(12, 6))
        labels = rng.integers(0, 3, size=12)
        reference, pipelined, _ = self._run_both(
            mlp_builder, inputs, labels, batch=4, steps=3
        )
        for ref, pipe in zip(reference.parameters(), pipelined.parameters()):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)

    def test_cnn_identical_weights(self, rng):
        inputs = rng.normal(size=(4, 1, 28, 28))
        labels = rng.integers(0, 10, size=4)
        reference, pipelined, _ = self._run_both(
            lambda seed: build_mnist_cnn(rng=seed), inputs, labels, batch=4
        )
        for ref, pipe in zip(reference.parameters(), pipelined.parameters()):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-12)

    def test_loss_matches_batched(self, rng):
        inputs = rng.normal(size=(6, 6))
        labels = rng.integers(0, 3, size=6)
        reference, pipelined = make_pair(mlp_builder, seed=3)
        batched_loss = SoftmaxCrossEntropy().forward(
            reference.forward(inputs), labels
        )
        trainer = PipelinedTrainer(
            pipelined, SGD(pipelined.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        mean_loss, _ = trainer.train_batch(inputs, labels)
        assert mean_loss == pytest.approx(batched_loss, rel=1e-12)


class TestScheduleProperties:
    def test_cycle_count_matches_formula(self, rng):
        network = build_mlp(6, (8,), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        inputs = rng.normal(size=(5, 6))
        labels = rng.integers(0, 3, size=5)
        _, cycles = trainer.train_batch(inputs, labels)
        assert cycles == training_cycles_per_batch_pipelined(
            trainer.depth, 5
        )

    def test_inputs_genuinely_overlap(self, rng):
        network = build_mlp(6, (8, 8), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        inputs = rng.normal(size=(6, 6))
        labels = rng.integers(0, 3, size=6)
        trainer.train_batch(inputs, labels)
        assert max(occupancy_profile(trainer.schedule)) >= 3

    def test_update_fires_once_per_batch(self, rng):
        network = build_mlp(6, (8,), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        inputs = rng.normal(size=(4, 6))
        labels = rng.integers(0, 3, size=4)
        trainer.train_batch(inputs, labels)
        network.zero_grad()
        trainer.train_batch(inputs, labels)
        updates = trainer.schedule.updates()
        assert [update.element for update in updates] == [0, 1]
        # Update is the last cycle of each batch.
        per_batch = trainer.schedule.makespan // 2
        assert updates[0].cycle == per_batch - 1
        assert updates[1].cycle == 2 * per_batch - 1

    def test_schedule_is_the_simulators_event_table(self, rng):
        network = build_mlp(6, (8, 8), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        trainer.train(
            rng.normal(size=(12, 6)), rng.integers(0, 3, size=12),
            batch_size=4,
        )
        expected = simulate_training_pipeline(trainer.depth, 12, 4)
        assert Counter(trainer.schedule.events) == Counter(expected.events)
        assert len(expected.events) == 87
        trainer.schedule.validate()

    def test_weights_moving_mid_batch_is_caught(self, rng):
        """The executor holds the weights frozen for the whole phase."""
        network = build_mlp(6, (8,), 3, rng=1)
        stages = group_into_stages(network)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        # The last stage's backward feeds the stage before it, so it
        # runs in full (the first stage forms parameter gradients only).
        dense = stages[-1][0]
        backward = dense.backward

        def leaky_backward(grad):
            dense.parameters()[0].value[0, 0] += 1.0
            return backward(grad)

        dense.backward = leaky_backward
        with pytest.raises(AssertionError, match="weights changed"):
            run_wavefront(
                trainer.program, {PIPE: stages},
                rng.normal(size=(2, 6)), SoftmaxCrossEntropy(),
                rng.integers(0, 3, size=2), [], 0, "train",
            )

    def test_input_gradient_is_not_formed(self):
        """The first stage's backward skips the network-input gradient:
        one ``col2im`` per sample (``c2``), none for ``c1``."""
        network = build_mnist_cnn(rng=11)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.05),
            SoftmaxCrossEntropy(),
        )
        inputs, labels, _, _ = make_train_test(4, 1, rng=7)
        with mock.patch.object(conv, "col2im", wraps=conv.col2im) as spy:
            trainer.train_batch(inputs, labels)
        assert spy.call_count == 4

    def test_train_loop_learns(self, rng):
        inputs = rng.normal(size=(120, 6))
        labels = (inputs[:, 0] > 0).astype(int)
        network = build_mlp(6, (16,), 2, rng=2)
        trainer = PipelinedTrainer(
            network,
            SGD(network.parameters(), lr=0.1, momentum=0.9),
            SoftmaxCrossEntropy(),
        )
        losses = trainer.train(inputs, labels, batch_size=12, epochs=8)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_ragged_dataset_rejected(self, rng):
        network = build_mlp(6, (8,), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        with pytest.raises(ValueError):
            trainer.train(
                rng.normal(size=(10, 6)),
                rng.integers(0, 3, size=10),
                batch_size=4,
            )

    def test_target_mismatch_rejected(self, rng):
        network = build_mlp(6, (8,), 3, rng=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        with pytest.raises(ValueError):
            trainer.train_batch(
                rng.normal(size=(4, 6)), rng.integers(0, 3, size=5)
            )
