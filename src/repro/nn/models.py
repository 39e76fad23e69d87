"""Model zoo: the network shapes the paper's evaluation uses.

Builders return :class:`~repro.nn.network.Sequential` instances.  The
large ImageNet-class networks (AlexNet, VGG-style) exist only as
layer-shape specifications in :mod:`repro.workloads`, which is all the
cycle/energy models read.
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FractionalStridedConv2D,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Reshape,
    Tanh,
    VirtualBatchNorm,
)
from repro.nn.network import Sequential
from repro.utils.rng import RngLike, spawn_rngs


def build_mlp(
    in_features: int,
    hidden: Tuple[int, ...],
    classes: int,
    rng: RngLike = None,
    name: str = "mlp",
) -> Sequential:
    """Plain multi-layer perceptron classifier."""
    rngs = iter(spawn_rngs(rng, len(hidden) + 1))
    layers = []
    width = in_features
    for index, units in enumerate(hidden):
        layers.append(
            Dense(width, units, rng=next(rngs), name=f"{name}.fc{index}")
        )
        layers.append(ReLU(name=f"{name}.relu{index}"))
        width = units
    layers.append(Dense(width, classes, rng=next(rngs), name=f"{name}.out"))
    return Sequential(layers, name=name)


def build_mnist_cnn(
    rng: RngLike = None, classes: int = 10, name: str = "mnist_cnn"
) -> Sequential:
    """LeNet-style CNN for 1x28x28 inputs (the paper's MNIST workload)."""
    rngs = iter(spawn_rngs(rng, 4))
    return Sequential(
        [
            Conv2D(1, 8, kernel_size=5, pad=2, rng=next(rngs), name=f"{name}.c1"),
            ReLU(name=f"{name}.r1"),
            MaxPool2D(2, name=f"{name}.p1"),
            Conv2D(8, 16, kernel_size=5, pad=2, rng=next(rngs), name=f"{name}.c2"),
            ReLU(name=f"{name}.r2"),
            MaxPool2D(2, name=f"{name}.p2"),
            Flatten(name=f"{name}.flat"),
            Dense(16 * 7 * 7, 64, rng=next(rngs), name=f"{name}.fc1"),
            ReLU(name=f"{name}.r3"),
            Dense(64, classes, rng=next(rngs), name=f"{name}.fc2"),
        ],
        name=name,
    )


def build_cifar_cnn(
    rng: RngLike = None, classes: int = 10, name: str = "cifar_cnn"
) -> Sequential:
    """Small VGG-style CNN for 3x32x32 inputs."""
    rngs = iter(spawn_rngs(rng, 5))
    return Sequential(
        [
            Conv2D(3, 16, kernel_size=3, pad=1, rng=next(rngs), name=f"{name}.c1"),
            ReLU(name=f"{name}.r1"),
            Conv2D(16, 16, kernel_size=3, pad=1, rng=next(rngs), name=f"{name}.c2"),
            ReLU(name=f"{name}.r2"),
            MaxPool2D(2, name=f"{name}.p1"),
            Conv2D(16, 32, kernel_size=3, pad=1, rng=next(rngs), name=f"{name}.c3"),
            ReLU(name=f"{name}.r3"),
            MaxPool2D(2, name=f"{name}.p2"),
            Flatten(name=f"{name}.flat"),
            Dense(32 * 8 * 8, 128, rng=next(rngs), name=f"{name}.fc1"),
            ReLU(name=f"{name}.r4"),
            Dropout(0.25, rng=next(rngs), name=f"{name}.drop"),
            Dense(128, classes, name=f"{name}.fc2"),
        ],
        name=name,
    )


def build_dcgan_generator(
    noise_dim: int = 32,
    base_channels: int = 16,
    image_channels: int = 1,
    image_size: int = 16,
    use_virtual_bn: bool = True,
    rng: RngLike = None,
    name: str = "dcgan_g",
) -> Sequential:
    """DCGAN generator: FC projection, then fractional-strided convs.

    Mirrors Fig. 2's generator: a noise vector is projected to a small
    spatial extent with many feature maps, then up-sampled by FCNN
    layers to ``image_channels x image_size x image_size``, with batch
    normalization before each activation and a final ``tanh``.
    ``image_size`` must be a multiple of 4 (two stride-2 up-samplings
    from ``image_size / 4``).
    """
    if image_size % 4 != 0:
        raise ValueError(f"image_size must be a multiple of 4, got {image_size}")
    seed_size = image_size // 4
    norm = VirtualBatchNorm if use_virtual_bn else BatchNorm
    rngs = iter(spawn_rngs(rng, 3))
    return Sequential(
        [
            Dense(
                noise_dim,
                2 * base_channels * seed_size * seed_size,
                rng=next(rngs),
                name=f"{name}.project",
            ),
            Reshape(
                (2 * base_channels, seed_size, seed_size),
                name=f"{name}.reshape",
            ),
            norm(2 * base_channels, name=f"{name}.bn1"),
            ReLU(name=f"{name}.r1"),
            FractionalStridedConv2D(
                2 * base_channels,
                base_channels,
                kernel_size=4,
                stride=2,
                pad=1,
                rng=next(rngs),
                name=f"{name}.up1",
            ),
            norm(base_channels, name=f"{name}.bn2"),
            ReLU(name=f"{name}.r2"),
            FractionalStridedConv2D(
                base_channels,
                image_channels,
                kernel_size=4,
                stride=2,
                pad=1,
                rng=next(rngs),
                name=f"{name}.up2",
            ),
            Tanh(name=f"{name}.tanh"),
        ],
        name=name,
    )


def build_dcgan_discriminator(
    base_channels: int = 16,
    image_channels: int = 1,
    image_size: int = 16,
    rng: RngLike = None,
    name: str = "dcgan_d",
) -> Sequential:
    """DCGAN discriminator: strided convs, LeakyReLU, single logit.

    Mirrors Fig. 2's discriminator ("down-samples the input to produce
    classification"); the final layer is the flattened feature map fed
    to one logit, per Sec. III-B-4.
    """
    if image_size % 4 != 0:
        raise ValueError(f"image_size must be a multiple of 4, got {image_size}")
    final = image_size // 4
    rngs = iter(spawn_rngs(rng, 3))
    return Sequential(
        [
            Conv2D(
                image_channels,
                base_channels,
                kernel_size=4,
                stride=2,
                pad=1,
                rng=next(rngs),
                name=f"{name}.down1",
            ),
            LeakyReLU(0.2, name=f"{name}.lr1"),
            Conv2D(
                base_channels,
                2 * base_channels,
                kernel_size=4,
                stride=2,
                pad=1,
                rng=next(rngs),
                name=f"{name}.down2",
            ),
            LeakyReLU(0.2, name=f"{name}.lr2"),
            Flatten(name=f"{name}.flat"),
            Dense(
                2 * base_channels * final * final,
                1,
                rng=next(rngs),
                name=f"{name}.logit",
            ),
        ],
        name=name,
    )

