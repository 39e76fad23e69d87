"""From-scratch numpy DNN substrate (layers, losses, optimizers, GAN).

This package is the software model of Sec. II-A: convolutional networks
with CONV/POOL/IP layers (Eq. 1-2), full forward and backward passes
with batch-synchronous weight updates, and the DCGAN generator/
discriminator pair of Fig. 2.
"""

from repro.nn.engine import ExactEngine, MatmulEngine, run_engine
from repro.nn.gan import GANHistory, GANTrainer
from repro.nn.gan_metrics import (
    discriminator_gap,
    gan_quality_report,
    mode_coverage,
    mode_histogram,
    sample_diversity,
)
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FractionalStridedConv2D,
    Layer,
    LeakyReLU,
    LUTActivation,
    MaxPool2D,
    ReLU,
    Reshape,
    Sigmoid,
    StatelessLayer,
    Tanh,
    VirtualBatchNorm,
)
from repro.nn.losses import (
    BinaryCrossEntropyWithLogits,
    Loss,
    MeanSquaredError,
    SoftmaxCrossEntropy,
    accuracy,
)
from repro.nn.models import (
    build_cifar_cnn,
    build_dcgan_discriminator,
    build_dcgan_generator,
    build_mlp,
    build_mnist_cnn,
)
from repro.nn.network import Sequential
from repro.nn.serialization import load_network, network_state, save_network
from repro.nn.optim import SGD, Adam, Optimizer, clip_gradients
from repro.nn.parameter import Parameter, ParameterSnapshot
from repro.nn.schedule import CosineLR, LRSchedule, StepLR, WarmupLR
from repro.nn.train import (
    TrainHistory,
    evaluate_classifier,
    iterate_batches,
    train_classifier,
)

__all__ = [
    "ExactEngine",
    "MatmulEngine",
    "run_engine",
    "GANHistory",
    "GANTrainer",
    "mode_coverage",
    "mode_histogram",
    "sample_diversity",
    "discriminator_gap",
    "gan_quality_report",
    "Layer",
    "StatelessLayer",
    "Dense",
    "Conv2D",
    "FractionalStridedConv2D",
    "AvgPool2D",
    "MaxPool2D",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "LUTActivation",
    "BatchNorm",
    "VirtualBatchNorm",
    "Flatten",
    "Reshape",
    "Dropout",
    "Loss",
    "MeanSquaredError",
    "SoftmaxCrossEntropy",
    "BinaryCrossEntropyWithLogits",
    "accuracy",
    "build_mlp",
    "build_mnist_cnn",
    "build_cifar_cnn",
    "build_dcgan_generator",
    "build_dcgan_discriminator",
    "Sequential",
    "save_network",
    "load_network",
    "network_state",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_gradients",
    "LRSchedule",
    "StepLR",
    "CosineLR",
    "WarmupLR",
    "Parameter",
    "ParameterSnapshot",
    "TrainHistory",
    "train_classifier",
    "evaluate_classifier",
    "iterate_batches",
]
