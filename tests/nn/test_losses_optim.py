"""Tests for losses and optimizers."""

import numpy as np
import pytest

from repro.nn.losses import (
    BinaryCrossEntropyWithLogits,
    SoftmaxCrossEntropy,
    accuracy,
)
from repro.nn.optim import SGD, Adam
from repro.nn.parameter import Parameter
from tests.conftest import numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 10)), np.arange(4) % 10)
        assert value == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        value = SoftmaxCrossEntropy().forward(logits, np.array([1, 2]))
        assert value < 1e-6

    def test_gradient_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)

        def value():
            return loss.forward(logits, targets)

        value()
        np.testing.assert_allclose(
            loss.backward(), numerical_gradient(value, logits), atol=1e-7
        )

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        loss.forward(rng.normal(size=(6, 5)), rng.integers(0, 5, size=6))
        np.testing.assert_allclose(
            loss.backward().sum(axis=1), 0.0, atol=1e-12
        )

    def test_softmax_shift_invariant(self, rng):
        logits = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            SoftmaxCrossEntropy.softmax(logits),
            SoftmaxCrossEntropy.softmax(logits + 1000.0),
        )

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0, 3]))


class TestBCEWithLogits:
    def test_matches_naive_formula_in_safe_range(self, rng):
        loss = BinaryCrossEntropyWithLogits()
        logits = rng.normal(size=(8, 1))
        targets = rng.integers(0, 2, size=(8, 1)).astype(float)
        value = loss.forward(logits, targets)
        probs = 1.0 / (1.0 + np.exp(-logits))
        naive = -np.mean(
            targets * np.log(probs) + (1 - targets) * np.log(1 - probs)
        )
        assert value == pytest.approx(naive)

    def test_stable_for_extreme_logits(self):
        loss = BinaryCrossEntropyWithLogits()
        value = loss.forward(
            np.array([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_gradient_numeric(self, rng):
        loss = BinaryCrossEntropyWithLogits()
        logits = rng.normal(size=(6, 1))
        targets = rng.integers(0, 2, size=(6, 1)).astype(float)

        def value():
            return loss.forward(logits, targets)

        value()
        np.testing.assert_allclose(
            loss.backward(), numerical_gradient(value, logits), atol=1e-7
        )

    def test_gan_labels(self):
        """Paper's labels: '1' for real, '0' for generated."""
        loss = BinaryCrossEntropyWithLogits()
        confident_real = loss.forward(np.array([10.0]), np.array([1.0]))
        fooled = loss.forward(np.array([10.0]), np.array([0.0]))
        assert confident_real < 0.01 < fooled

    def test_rejects_targets_outside_unit(self):
        with pytest.raises(ValueError):
            BinaryCrossEntropyWithLogits().forward(
                np.zeros(3), np.array([0.0, 0.5, 1.5])
            )


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestSGD:
    def test_plain_step(self):
        parameter = Parameter(np.array([1.0, 2.0]))
        parameter.grad[:] = [0.5, -0.5]
        SGD([parameter], lr=0.1).step()
        np.testing.assert_allclose(parameter.value, [0.95, 2.05])

    def test_momentum_accumulates(self):
        parameter = Parameter(np.array([0.0]))
        optimizer = SGD([parameter], lr=1.0, momentum=0.9)
        parameter.grad[:] = [1.0]
        optimizer.step()
        first = parameter.value.copy()
        parameter.grad[:] = [1.0]
        optimizer.step()
        second_step = parameter.value - first
        assert second_step[0] < -1.0  # velocity adds to raw step

    def test_weight_decay_shrinks(self):
        parameter = Parameter(np.array([10.0]))
        parameter.grad[:] = [0.0]
        SGD([parameter], lr=0.1, weight_decay=0.5).step()
        assert parameter.value[0] < 10.0

    def test_minimizes_quadratic(self):
        parameter = Parameter(np.array([5.0, -3.0]))
        optimizer = SGD([parameter], lr=0.1, momentum=0.5)
        for _ in range(200):
            optimizer.zero_grad()
            parameter.grad[:] = 2 * parameter.value
            optimizer.step()
        np.testing.assert_allclose(parameter.value, 0.0, atol=1e-4)

    def test_rejects_bad_hyperparameters(self):
        parameter = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.0)
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_minimizes_quadratic(self):
        parameter = Parameter(np.array([4.0, -2.0]))
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            parameter.grad[:] = 2 * parameter.value
            optimizer.step()
        np.testing.assert_allclose(parameter.value, 0.0, atol=1e-3)

    def test_first_step_size_near_lr(self):
        parameter = Parameter(np.array([0.0]))
        optimizer = Adam([parameter], lr=0.01)
        parameter.grad[:] = [100.0]
        optimizer.step()
        # Bias correction makes the first step ~lr regardless of scale.
        assert abs(parameter.value[0] + 0.01) < 1e-6

    def test_rejects_bad_betas(self):
        parameter = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([parameter], beta1=1.0)
        with pytest.raises(ValueError):
            Adam([parameter], beta2=-0.1)
