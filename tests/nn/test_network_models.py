"""Tests for Sequential, Parameter utilities, and the model zoo."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Parameter,
    ParameterSnapshot,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    build_cifar_cnn,
    build_dcgan_discriminator,
    build_dcgan_generator,
    build_mlp,
    build_mnist_cnn,
)
from repro.nn.layers import conv
from tests.conftest import numerical_gradient


def _pool_first_network():
    """A network whose first layer has no parameters."""
    return Sequential(
        [
            MaxPool2D(2),
            Conv2D(1, 4, kernel_size=3, pad=1, rng=1),
            ReLU(),
            Flatten(),
            Dense(4 * 14 * 14, 10, rng=2),
        ]
    )


#: name -> (network builder, batch input shape)
TRAIN_STEP_NETWORKS = {
    "mnist_cnn": (lambda: build_mnist_cnn(rng=3), (4, 1, 28, 28)),
    "mlp": (lambda: build_mlp(20, (16, 8), 10, rng=3), (4, 20)),
    "pool_first": (_pool_first_network, (4, 1, 28, 28)),
}


class TestParameter:
    def test_zero_grad(self):
        parameter = Parameter(np.ones(3))
        parameter.grad[:] = 5.0
        parameter.zero_grad()
        np.testing.assert_array_equal(parameter.grad, 0.0)

    def test_copy_from(self):
        a = Parameter(np.ones(3))
        b = Parameter(np.zeros(3))
        b.copy_from(a)
        np.testing.assert_array_equal(b.value, 1.0)

    def test_copy_from_shape_mismatch(self):
        with pytest.raises(ValueError):
            Parameter(np.ones(3)).copy_from(Parameter(np.ones(4)))

    def test_snapshot_restore(self, rng):
        parameter = Parameter(rng.normal(size=(3, 3)))
        snapshot = ParameterSnapshot([parameter])
        original = parameter.value.copy()
        parameter.value += 1.0
        assert snapshot.max_abs_delta() == pytest.approx(1.0)
        snapshot.restore()
        np.testing.assert_array_equal(parameter.value, original)


class TestSequential:
    def test_forward_chains_layers(self, rng):
        net = Sequential([Dense(4, 3, rng=1), ReLU(), Dense(3, 2, rng=2)])
        out = net.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 2)

    def test_backward_through_stack_numeric(self, rng):
        net = Sequential([Dense(3, 4, rng=1), ReLU(), Dense(4, 2, rng=2)])
        inputs = rng.normal(size=(2, 3))

        def loss():
            return float(np.sum(np.sin(net.forward(inputs))))

        out = net.forward(inputs)
        net.zero_grad()
        grad_in = net.backward(np.cos(out))
        np.testing.assert_allclose(
            grad_in, numerical_gradient(loss, inputs), atol=1e-6
        )

    def test_train_step_accumulates_without_stepping(self, rng):
        net = Sequential([Dense(3, 2, rng=1)])
        before = net.layers[0].weight.value.copy()
        value = net.train_step(
            rng.normal(size=(4, 3)),
            rng.integers(0, 2, size=4),
            SoftmaxCrossEntropy(),
        )
        assert value > 0
        np.testing.assert_array_equal(net.layers[0].weight.value, before)
        assert np.any(net.layers[0].weight.grad != 0)

    @pytest.mark.parametrize("name", sorted(TRAIN_STEP_NETWORKS))
    def test_train_step_grads_match_full_backward(self, rng, name):
        # train_step skips the network-input gradient; the parameter
        # gradients must still equal a full backward's, bit for bit.
        build, shape = TRAIN_STEP_NETWORKS[name]
        inputs = rng.normal(size=shape)
        targets = rng.integers(0, 10, size=shape[0])
        full, skipped = build(), build()
        loss = SoftmaxCrossEntropy()
        expected = loss.forward(full.forward(inputs, training=True), targets)
        full.backward(loss.backward())
        value = skipped.train_step(inputs, targets, SoftmaxCrossEntropy())
        assert value == expected
        for want, got in zip(full.parameters(), skipped.parameters()):
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_train_step_skips_first_layer_col2im(self, rng, monkeypatch):
        calls = []
        original = conv.col2im

        def counting_col2im(grad_cols, input_shape, *args):
            calls.append(tuple(input_shape))
            return original(grad_cols, input_shape, *args)

        monkeypatch.setattr(conv, "col2im", counting_col2im)
        net = build_mnist_cnn(rng=3)
        net.train_step(
            rng.normal(size=(2, 1, 28, 28)),
            rng.integers(0, 10, size=2),
            SoftmaxCrossEntropy(),
        )
        # Only c2's input gradient is formed; c1's input is the network's.
        assert calls == [(2, 8, 14, 14)]

    def test_parameters_in_layer_order(self):
        net = Sequential([Dense(2, 3), Dense(3, 4)])
        params = net.parameters()
        assert params[0].shape == (2, 3)
        assert params[2].shape == (3, 4)

    def test_output_shapes(self):
        net = build_mnist_cnn()
        shapes = net.output_shapes((1, 28, 28))
        assert shapes[-1] == (10,)
        assert (16, 7, 7) in shapes

    def test_summary_contains_totals(self):
        net = build_mlp(4, (8,), 2)
        text = net.summary((4,))
        assert "total parameters" in text

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_len_and_iter(self):
        net = Sequential([Dense(2, 2), ReLU()])
        assert len(net) == 2
        assert [type(l).__name__ for l in net] == ["Dense", "ReLU"]


class TestModelZoo:
    def test_mnist_cnn_shapes(self, rng):
        net = build_mnist_cnn(rng=1)
        out = net.forward(rng.normal(size=(2, 1, 28, 28)))
        assert out.shape == (2, 10)

    def test_cifar_cnn_shapes(self, rng):
        net = build_cifar_cnn(rng=1)
        out = net.forward(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_generator_output_geometry(self, rng):
        net = build_dcgan_generator(
            noise_dim=16, base_channels=8, image_channels=3, image_size=16, rng=1
        )
        out = net.forward(rng.normal(size=(2, 16)))
        assert out.shape == (2, 3, 16, 16)

    def test_generator_output_in_tanh_range(self, rng):
        net = build_dcgan_generator(noise_dim=8, base_channels=4, rng=1)
        out = net.forward(rng.uniform(-1, 1, size=(4, 8)))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_generator_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_dcgan_generator(image_size=10)

    def test_discriminator_single_logit(self, rng):
        net = build_dcgan_discriminator(
            base_channels=8, image_channels=3, image_size=16, rng=1
        )
        out = net.forward(rng.normal(size=(3, 3, 16, 16)))
        assert out.shape == (3, 1)

    def test_gan_pair_composes(self, rng):
        generator = build_dcgan_generator(
            noise_dim=8, base_channels=4, image_channels=1, image_size=16, rng=1
        )
        discriminator = build_dcgan_discriminator(
            base_channels=4, image_channels=1, image_size=16, rng=2
        )
        samples = generator.forward(rng.uniform(-1, 1, size=(2, 8)))
        logits = discriminator.forward(samples)
        assert logits.shape == (2, 1)

    def test_mlp_depth(self):
        net = build_mlp(10, (32, 16), 4)
        dense_layers = [l for l in net.layers if isinstance(l, Dense)]
        assert len(dense_layers) == 3

    def test_seeded_builders_are_deterministic(self, rng):
        a = build_mnist_cnn(rng=7)
        b = build_mnist_cnn(rng=7)
        inputs = rng.normal(size=(1, 1, 28, 28))
        np.testing.assert_array_equal(a.forward(inputs), b.forward(inputs))
