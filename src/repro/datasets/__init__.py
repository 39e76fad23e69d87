"""Synthetic stand-ins for the paper's datasets (offline substitution)."""

from repro.datasets.synthetic import (
    CIFAR10_SHAPE,
    MNIST_SHAPE,
    DatasetShape,
    gan_mode_templates,
    make_classification_images,
    make_gan_images,
    make_train_test,
)

__all__ = [
    "DatasetShape",
    "MNIST_SHAPE",
    "CIFAR10_SHAPE",
    "gan_mode_templates",
    "make_classification_images",
    "make_train_test",
    "make_gan_images",
]
