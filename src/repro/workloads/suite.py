"""The evaluation workload suite (Sec. III-C).

PipeLayer was evaluated on MNIST and ImageNet-class CNNs; ReGAN on
DCGANs sized for MNIST, CIFAR-10, CelebA and LSUN.  This module
provides shape-faithful network specifications for all of them, plus a
:class:`NetworkSpec` container that derives the aggregate quantities
the pipeline and energy models need (layer count ``L``, total MACs,
total weights, activation traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.specs import LayerSpec, conv, fc, fcnn, pool


@dataclass(frozen=True)
class NetworkSpec:
    """A named stack of layer specs."""

    name: str
    layers: Tuple[LayerSpec, ...]
    input_shape: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")

    @property
    def matrix_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers that own crossbar-mapped weights."""
        return tuple(l for l in self.layers if l.is_matrix_layer)

    @property
    def depth(self) -> int:
        """Pipeline depth L: weighted layers (paper's 'L layers').

        Pooling/activation ride in the same pipeline stage as the
        preceding weighted layer (they are peripheral circuits of the
        morphable subarray), so L counts matrix layers.
        """
        return len(self.matrix_layers)

    @property
    def total_macs(self) -> int:
        """Forward MACs per image."""
        return sum(l.macs for l in self.layers)

    @property
    def total_weights(self) -> int:
        """Trainable weights across all layers."""
        return sum(l.weight_count for l in self.layers)

    @property
    def total_activations(self) -> int:
        """Sum of all layer output sizes (inter-layer traffic/image)."""
        return sum(l.output_size for l in self.layers)

    def summary(self) -> str:
        """Per-layer table of the derived quantities."""
        lines = [f"{self.name}: input {self.input_shape}"]
        for layer in self.layers:
            lines.append(
                f"  {layer.name or layer.kind:<14s} {layer.kind:<5s} "
                f"matrix {layer.matrix_rows}x{layer.matrix_cols} "
                f"vectors/img {layer.output_vectors} "
                f"MACs {layer.macs:,}"
            )
        lines.append(
            f"  L={self.depth}  MACs={self.total_macs:,}  "
            f"weights={self.total_weights:,}"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# PipeLayer workloads: MNIST + ImageNet-class CNNs.
# --------------------------------------------------------------------------

def mnist_cnn_spec() -> NetworkSpec:
    """LeNet-style MNIST CNN matching :func:`repro.nn.models.build_mnist_cnn`."""
    return NetworkSpec(
        name="mnist_cnn",
        input_shape=(1, 28, 28),
        layers=(
            conv(1, 28, 8, 5, pad=2, name="conv1"),
            pool(8, 28, 2, name="pool1"),
            conv(8, 14, 16, 5, pad=2, name="conv2"),
            pool(16, 14, 2, name="pool2"),
            fc(16 * 7 * 7, 64, name="fc1"),
            fc(64, 10, name="fc2"),
        ),
    )


def alexnet_spec() -> NetworkSpec:
    """AlexNet (227x227x3), the classic ImageNet workload [1]."""
    return NetworkSpec(
        name="alexnet",
        input_shape=(3, 227, 227),
        layers=(
            conv(3, 227, 96, 11, stride=4, name="conv1"),
            pool(96, 55, 3, name="pool1"),
            conv(96, 27, 256, 5, pad=2, name="conv2"),
            pool(256, 27, 3, name="pool2"),
            conv(256, 13, 384, 3, pad=1, name="conv3"),
            conv(384, 13, 384, 3, pad=1, name="conv4"),
            conv(384, 13, 256, 3, pad=1, name="conv5"),
            pool(256, 13, 3, name="pool5"),
            fc(256 * 6 * 6, 4096, name="fc6"),
            fc(4096, 4096, name="fc7"),
            fc(4096, 1000, name="fc8"),
        ),
    )


def vggnet_spec() -> NetworkSpec:
    """VGG-16 (224x224x3), the deep ImageNet workload PipeLayer used."""
    cfg = [
        (3, 224, 64), (64, 224, 64),
        (64, 112, 128), (128, 112, 128),
        (128, 56, 256), (256, 56, 256), (256, 56, 256),
        (256, 28, 512), (512, 28, 512), (512, 28, 512),
        (512, 14, 512), (512, 14, 512), (512, 14, 512),
    ]
    layers: List[LayerSpec] = []
    pool_after = {1, 3, 6, 9, 12}
    for index, (cin, size, cout) in enumerate(cfg):
        layers.append(conv(cin, size, cout, 3, pad=1, name=f"conv{index + 1}"))
        if index in pool_after:
            layers.append(pool(cout, size, 2, name=f"pool{index + 1}"))
    layers.extend(
        [
            fc(512 * 7 * 7, 4096, name="fc14"),
            fc(4096, 4096, name="fc15"),
            fc(4096, 1000, name="fc16"),
        ]
    )
    return NetworkSpec(
        name="vggnet", input_shape=(3, 224, 224), layers=tuple(layers)
    )


def pipelayer_suite() -> List[NetworkSpec]:
    """The PipeLayer evaluation set (Table I row 1)."""
    return [mnist_cnn_spec(), alexnet_spec(), vggnet_spec()]


# --------------------------------------------------------------------------
# ReGAN workloads: DCGANs sized for the four datasets (Table I row 2).
# --------------------------------------------------------------------------

def dcgan_spec(
    image_size: int,
    image_channels: int,
    base_channels: int = 128,
    noise_dim: int = 100,
    name: str = "dcgan",
) -> Tuple[NetworkSpec, NetworkSpec]:
    """Build (generator, discriminator) specs in the DCGAN shape [10].

    The generator projects noise to a ``4x4`` seed with many feature
    maps, then doubles the spatial extent with stride-2 FCNN layers
    until ``image_size``; the discriminator mirrors it with stride-2
    convolutions down to ``4x4`` and one logit.  ``image_size`` must be
    a power-of-two multiple of 4 (16, 32, 64, ...).
    """
    if image_size < 16 or image_size & (image_size - 1):
        raise ValueError(
            f"image_size must be a power of two >= 16, got {image_size}"
        )
    doublings = 0
    size = 4
    while size < image_size:
        size *= 2
        doublings += 1

    # Generator: channels halve at each up-sampling stage.
    g_layers: List[LayerSpec] = []
    seed_channels = base_channels * 2 ** (doublings - 1)
    g_layers.append(fc(noise_dim, seed_channels * 16, name="g_project"))
    channels = seed_channels
    size = 4
    for stage in range(doublings):
        out_channels = (
            image_channels if stage == doublings - 1 else channels // 2
        )
        g_layers.append(
            fcnn(channels, size, out_channels, 4, stride=2, pad=1,
                 name=f"g_up{stage + 1}")
        )
        channels = out_channels
        size *= 2
    generator = NetworkSpec(
        name=f"{name}_g",
        input_shape=(noise_dim, 1, 1),
        layers=tuple(g_layers),
    )

    # Discriminator: channels double at each down-sampling stage.
    d_layers: List[LayerSpec] = []
    channels = image_channels
    out_channels = base_channels
    size = image_size
    for stage in range(doublings):
        d_layers.append(
            conv(channels, size, out_channels, 4, stride=2, pad=1,
                 name=f"d_down{stage + 1}")
        )
        channels = out_channels
        out_channels *= 2
        size //= 2
    d_layers.append(fc(channels * size * size, 1, name="d_logit"))
    discriminator = NetworkSpec(
        name=f"{name}_d",
        input_shape=(image_channels, image_size, image_size),
        layers=tuple(d_layers),
    )
    return generator, discriminator


def regan_suite() -> Dict[str, Tuple[NetworkSpec, NetworkSpec]]:
    """DCGAN (G, D) pairs for the four ReGAN datasets."""
    return {
        "mnist": dcgan_spec(32, 1, base_channels=64, name="dcgan_mnist"),
        "cifar10": dcgan_spec(32, 3, base_channels=128, name="dcgan_cifar10"),
        "celeba": dcgan_spec(64, 3, base_channels=128, name="dcgan_celeba"),
        "lsun": dcgan_spec(64, 3, base_channels=128, name="dcgan_lsun"),
    }
