"""Tests for Dense and Conv2D: gradients, shapes, engine hook."""

import numpy as np
import pytest

from repro.nn.engine import ExactEngine
from repro.nn.layers import Conv2D, Dense
from tests.conftest import assert_layer_gradients


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(6, 4, rng=1)
        inputs = rng.normal(size=(3, 6))
        expected = inputs @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(inputs), expected)

    def test_gradients(self, rng):
        assert_layer_gradients(Dense(5, 4, rng=2), (3, 5), rng)

    def test_gradients_without_bias(self, rng):
        assert_layer_gradients(
            Dense(4, 3, use_bias=False, rng=2), (2, 4), rng
        )

    def test_gradient_accumulation(self, rng):
        layer = Dense(4, 2, rng=3)
        inputs = rng.normal(size=(2, 4))
        grad = rng.normal(size=(2, 2))
        layer.forward(inputs)
        layer.backward(grad)
        first = layer.weight.grad.copy()
        layer.forward(inputs)
        layer.backward(grad)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_rejects_wrong_width(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 2).forward(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(4, 2).backward(rng.normal(size=(2, 2)))

    def test_output_shape(self):
        assert Dense(12, 5).output_shape((12,)) == (5,)
        assert Dense(12, 5).output_shape((3, 2, 2)) == (5,)

    def test_output_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dense(12, 5).output_shape((11,))

    def test_engine_is_used_for_forward(self, rng):
        layer = Dense(4, 3, rng=1, engine=ExactEngine())
        inputs = rng.normal(size=(2, 4))
        reference = Dense(4, 3, rng=1)
        np.testing.assert_allclose(
            layer.forward(inputs), reference.forward(inputs)
        )

    def test_parameter_count(self):
        assert Dense(10, 5).parameter_count() == 55
        assert Dense(10, 5, use_bias=False).parameter_count() == 50

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 5)
        with pytest.raises(ValueError):
            Dense(5, 0)


class TestConv2D:
    def test_output_shape_known(self):
        layer = Conv2D(3, 8, kernel_size=3, stride=1, pad=1)
        assert layer.output_shape((3, 14, 14)) == (8, 14, 14)

    def test_fig4_geometry(self):
        """Fig. 4's worked example: 1152 word lines x 256 bit lines."""
        layer = Conv2D(128, 256, kernel_size=3)
        assert layer._weight_matrix().shape == (1152, 256)

    def test_gradients(self, rng):
        assert_layer_gradients(
            Conv2D(2, 3, kernel_size=3, stride=1, pad=1, rng=2), (2, 2, 5, 5), rng
        )

    def test_gradients_strided(self, rng):
        assert_layer_gradients(
            Conv2D(2, 2, kernel_size=3, stride=2, rng=2), (2, 2, 7, 7), rng
        )

    def test_gradients_no_bias(self, rng):
        assert_layer_gradients(
            Conv2D(1, 2, kernel_size=2, use_bias=False, rng=2), (2, 1, 4, 4), rng
        )

    def test_translation_equivariance(self, rng):
        """Shifting the input shifts the (valid interior) output."""
        layer = Conv2D(1, 1, kernel_size=3, pad=1, use_bias=False, rng=1)
        images = rng.normal(size=(1, 1, 10, 10))
        out = layer.forward(images)
        shifted = np.roll(images, 2, axis=3)
        out_shifted = layer.forward(shifted)
        np.testing.assert_allclose(
            out[:, :, :, 3:-3], out_shifted[:, :, :, 5:-1], atol=1e-12
        )

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, kernel_size=1, use_bias=False)
        layer.weight.value[:] = 1.0
        images = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(layer.forward(images), images)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            Conv2D(3, 4, kernel_size=3).forward(rng.normal(size=(1, 2, 8, 8)))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            Conv2D(1, 1, kernel_size=1).backward(rng.normal(size=(1, 1, 2, 2)))

    def test_engine_matches_exact(self, rng):
        reference = Conv2D(2, 3, kernel_size=3, pad=1, rng=9)
        engined = Conv2D(2, 3, kernel_size=3, pad=1, rng=9, engine=ExactEngine())
        images = rng.normal(size=(2, 2, 6, 6))
        np.testing.assert_allclose(
            engined.forward(images), reference.forward(images)
        )

    def test_output_shape_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            Conv2D(3, 4, kernel_size=3).output_shape((2, 8, 8))
