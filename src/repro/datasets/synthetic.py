"""Synthetic datasets standing in for MNIST / CIFAR-10 / CelebA / LSUN.

The paper's experiments use real image datasets (Sec. III-C); this
offline reproduction substitutes deterministic synthetic generators
with the same tensor shapes and a *learnable* class structure (see
DESIGN.md, "Substitutions").  What the experiments actually need is:

* classification sets where a small CNN can reach high accuracy, so
  crossbar-vs-float accuracy deltas are measurable
  (:func:`make_classification_images`, digit-like class templates plus
  noise and jitter);
* unlabeled image distributions with low-dimensional structure for GAN
  training, so the discriminator has something real to separate from
  generator output (:func:`make_gan_images`, smooth random-blob
  images).

All generators are pure functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.utils.rng import RngLike, new_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DatasetShape:
    """Image geometry of one stand-in dataset."""

    name: str
    channels: int
    size: int
    classes: int

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return (self.channels, self.size, self.size)


#: Shapes matching the paper's classification datasets.
MNIST_SHAPE = DatasetShape("mnist", 1, 28, 10)
CIFAR10_SHAPE = DatasetShape("cifar10", 3, 32, 10)


def _class_templates(
    classes: int, channels: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Smooth per-class template images.

    Each class is a mixture of a few Gaussian bumps at class-specific
    locations — visually blob-"digits", linearly separable enough to
    train on and hard enough that capacity and arithmetic fidelity
    matter.
    """
    grid = np.linspace(-1.0, 1.0, size)
    ys, xs = np.meshgrid(grid, grid, indexing="ij")
    templates = np.zeros((classes, channels, size, size))
    for cls in range(classes):
        bumps = 2 + cls % 3
        for _ in range(bumps):
            centre = rng.uniform(-0.7, 0.7, size=2)
            width = rng.uniform(0.15, 0.4)
            bump = np.exp(
                -((xs - centre[0]) ** 2 + (ys - centre[1]) ** 2)
                / (2 * width**2)
            )
            weights = rng.uniform(0.4, 1.0, size=channels)
            for channel in range(channels):
                templates[cls, channel] += weights[channel] * bump
    peak = templates.max(axis=(1, 2, 3), keepdims=True)
    return templates / np.maximum(peak, 1e-12)


@lru_cache(maxsize=16)
def _seeded_templates(
    classes: int, channels: int, size: int, seed: int
) -> np.ndarray:
    """:func:`_class_templates` from a fresh ``seed`` stream, kept.

    A pure function of its arguments, so repeated evaluation sets of
    one task (every inference job of a simulator) draw the templates
    once.  Read-only: every caller shares the array.  Bounded like the
    serve layer's programmed-state cache.
    """
    templates = _class_templates(classes, channels, size, new_rng(seed))
    templates.flags.writeable = False
    return templates


def make_classification_images(
    count: int,
    shape: DatasetShape = MNIST_SHAPE,
    noise: float = 0.15,
    jitter: int = 2,
    rng: RngLike = None,
    template_rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Labelled images: class template + spatial jitter + pixel noise.

    Returns ``(images, labels)`` with images in ``[0, 1]``-ish range,
    NCHW float64, and integer labels.

    ``template_rng`` optionally draws the class templates from a
    separate stream, so two differently-seeded calls can produce
    held-out sets of the *same* classification task — e.g. an
    evaluation set for a model trained on a :func:`make_train_test`
    split (pass that split's seed here and a fresh ``rng``).
    """
    check_positive("count", count)
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    rng = new_rng(rng)
    args = (shape.classes, shape.channels, shape.size)
    if isinstance(template_rng, int):
        templates = _seeded_templates(*args, template_rng)
    else:
        templates = _class_templates(
            *args, rng if template_rng is None else template_rng
        )
    labels = rng.integers(0, shape.classes, size=count)
    images = np.empty((count, shape.channels, shape.size, shape.size))
    for index, label in enumerate(labels):
        image = templates[label]
        if jitter:
            shift_y, shift_x = rng.integers(-jitter, jitter + 1, size=2)
            image = np.roll(image, (int(shift_y), int(shift_x)), axis=(1, 2))
        images[index] = image + rng.normal(0.0, noise, size=image.shape)
    return images, labels.astype(np.int64)


def make_train_test(
    train_count: int,
    test_count: int,
    shape: DatasetShape = MNIST_SHAPE,
    noise: float = 0.15,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Train/test split drawn from the same template family.

    The templates are sampled once, then both splits draw from them, so
    test accuracy measures generalisation over jitter and noise rather
    than memorisation.
    """
    rng = new_rng(rng)
    total = train_count + test_count
    images, labels = make_classification_images(
        total, shape=shape, noise=noise, rng=rng
    )
    return (
        images[:train_count],
        labels[:train_count],
        images[train_count:],
        labels[train_count:],
    )


def gan_mode_templates(
    shape: DatasetShape = MNIST_SHAPE,
    modes: int = 4,
    rng: RngLike = None,
) -> np.ndarray:
    """The mode templates :func:`make_gan_images` samples around.

    Same seed + same ``modes`` as a :func:`make_gan_images` call
    returns the exact templates underlying that dataset (both draw them
    first from the shared stream), mapped to the generator's ``[-1, 1]``
    range — ground truth for mode-coverage metrics.
    """
    check_positive("modes", modes)
    rng = new_rng(rng)
    templates = _class_templates(modes, shape.channels, shape.size, rng)
    return np.clip(templates * 2.0 - 1.0, -1.0, 1.0)


def make_gan_images(
    count: int,
    shape: DatasetShape = MNIST_SHAPE,
    modes: int = 4,
    rng: RngLike = None,
) -> np.ndarray:
    """Unlabeled "real" images for GAN training, range ``[-1, 1]``.

    A ``modes``-mode distribution of smooth blob images: each sample
    picks a mode (base template) and perturbs its blob positions, so
    the distribution has low-dimensional structure a small GAN can
    approach — and mode collapse is observable.
    """
    check_positive("count", count)
    check_positive("modes", modes)
    rng = new_rng(rng)
    templates = _class_templates(modes, shape.channels, shape.size, rng)
    images = np.empty((count, shape.channels, shape.size, shape.size))
    for index in range(count):
        mode = int(rng.integers(0, modes))
        image = templates[mode]
        shift = rng.integers(-2, 3, size=2)
        image = np.roll(image, (int(shift[0]), int(shift[1])), axis=(1, 2))
        images[index] = image + rng.normal(0.0, 0.05, size=image.shape)
    # Map to the generator's tanh output range.
    return np.clip(images * 2.0 - 1.0, -1.0, 1.0)
