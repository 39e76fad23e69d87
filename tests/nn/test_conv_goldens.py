"""Goldens for the convolution arithmetic the float training path runs.

``Conv2D.backward``, ``FractionalStridedConv2D`` and a pipelined DCGAN
iteration are pinned by the sha256 of their output bytes.  Closeness
tests pass when a rewrite only reorders a sum; these do not.  A
different loop over kernel taps, or a single-channel product that
becomes a matrix-vector call, can round some small shapes differently.
That moves a trained digest while every ``allclose`` check still holds.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.pipelined_gan import PipelinedGANTrainer, fix_vbn_references
from repro.datasets.synthetic import DatasetShape, make_gan_images
from repro.nn.layers import Conv2D, FractionalStridedConv2D
from repro.nn.models import build_dcgan_discriminator, build_dcgan_generator
from repro.nn.optim import Adam


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _forward_backward(layer, input_shape, seed):
    data = np.random.default_rng(seed)
    outputs = layer.forward(data.normal(size=input_shape), training=True)
    grad_inputs = layer.backward(data.normal(size=outputs.shape))
    grads = [parameter.grad for parameter in layer.parameters()]
    return [outputs, grad_inputs, *grads]


CONV_BACKWARD_GOLDENS = {
    (1, 1): "10cc74baf238abdd88f82fb824ccca492ad6b7459ac5aed063348b511b6ecb22",
    (3, 1): "9d8cc30f9ff53f5d8eb0fdd618c326f72ef63e7e399e9c203d0f300f76547c31",
    (1, 2): "c23d7daae76237ce7e708fd4436add825ebf18cf574adaedc5b922f78831359e",
    (3, 2): "c3542d98801f08fd2d2c854952bf118fa15c2c80261434a7aadfdc00f08887bf",
}


@pytest.mark.parametrize("in_channels, stride", sorted(CONV_BACKWARD_GOLDENS))
def test_conv2d_backward_golden(in_channels, stride):
    layer = Conv2D(in_channels, 4, 3, stride=stride, pad=1, rng=5)
    arrays = _forward_backward(layer, (2, in_channels, 9, 9), seed=6)
    assert _digest(arrays) == CONV_BACKWARD_GOLDENS[(in_channels, stride)]


FRACTIONAL_STRIDED_GOLDENS = {
    1: "39738841e99182804cb9e2fca2b79e42910669cf29715a5137764e8d3a28e128",
    3: "38ba5964adab1de38e9176f0f1ca7605a483010d6bc6ea60a7f3622150ef626c",
}


@pytest.mark.parametrize("in_channels", sorted(FRACTIONAL_STRIDED_GOLDENS))
def test_fractional_strided_conv_golden(in_channels):
    layer = FractionalStridedConv2D(in_channels, 4, 4, stride=2, pad=1, rng=7)
    arrays = _forward_backward(layer, (2, in_channels, 5, 5), seed=8)
    assert _digest(arrays) == FRACTIONAL_STRIDED_GOLDENS[in_channels]


#: Two pipelined iterations of a 16x16 single-channel DCGAN: the result
#: dicts, then every generator and discriminator parameter.
PIPELINED_GAN_GOLDEN = (
    "b846c8daa72e84bd5da3c0aa3292740967403bdbf68bd8e708d7a14106d17ad8"
)


def test_pipelined_gan_iterations_golden():
    generator = build_dcgan_generator(
        noise_dim=8, base_channels=4, image_channels=1, image_size=16,
        use_virtual_bn=True, rng=1,
    )
    discriminator = build_dcgan_discriminator(
        base_channels=4, image_channels=1, image_size=16, rng=2
    )
    noise_source = np.random.default_rng(0)
    fix_vbn_references(generator, noise_source.uniform(-1, 1, (8, 8)))
    trainer = PipelinedGANTrainer(
        generator,
        discriminator,
        Adam(generator.parameters(), lr=2e-4),
        Adam(discriminator.parameters(), lr=2e-4),
    )
    real = make_gan_images(4, DatasetShape("t", 1, 16, 2), rng=6)
    digest = hashlib.sha256()
    for _ in range(2):
        noise = noise_source.uniform(-1, 1, (4, 8))
        result = trainer.train_iteration(real, noise, noise)
        digest.update(json.dumps(result, sort_keys=True).encode())
    for parameter in generator.parameters() + discriminator.parameters():
        digest.update(parameter.value.tobytes())
    assert digest.hexdigest() == PIPELINED_GAN_GOLDEN
