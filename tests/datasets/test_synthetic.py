"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    CIFAR10_SHAPE,
    MNIST_SHAPE,
    DatasetShape,
    make_classification_images,
    make_gan_images,
    make_train_test,
)


class TestShapes:
    def test_mnist_shape(self):
        assert MNIST_SHAPE.image_shape == (1, 28, 28)

    def test_cifar_shape(self):
        assert CIFAR10_SHAPE.image_shape == (3, 32, 32)


class TestClassificationImages:
    def test_shapes_and_dtypes(self):
        images, labels = make_classification_images(10, rng=0)
        assert images.shape == (10, 1, 28, 28)
        assert labels.shape == (10,)
        assert labels.dtype == np.int64

    def test_labels_in_range(self):
        _, labels = make_classification_images(200, rng=0)
        assert labels.min() >= 0
        assert labels.max() < MNIST_SHAPE.classes

    def test_deterministic(self):
        a_images, a_labels = make_classification_images(20, rng=5)
        b_images, b_labels = make_classification_images(20, rng=5)
        np.testing.assert_array_equal(a_images, b_images)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_seed_changes_data(self):
        a, _ = make_classification_images(20, rng=1)
        b, _ = make_classification_images(20, rng=2)
        assert not np.array_equal(a, b)

    def test_classes_are_distinguishable(self):
        """Same-class images correlate more than cross-class images —
        the property that makes the sets learnable."""
        images, labels = make_classification_images(
            300, noise=0.05, jitter=0, rng=3
        )
        flat = images.reshape(len(images), -1)
        centroids = np.stack(
            [flat[labels == c].mean(axis=0) for c in range(10)]
        )
        same, cross = [], []
        for index in range(len(flat)):
            for cls in range(10):
                distance = np.linalg.norm(flat[index] - centroids[cls])
                (same if cls == labels[index] else cross).append(distance)
        assert np.mean(same) < np.mean(cross)

    def test_noise_increases_variance(self):
        quiet, _ = make_classification_images(50, noise=0.01, rng=4)
        loud, _ = make_classification_images(50, noise=0.5, rng=4)
        assert loud.std() > quiet.std()

    def test_custom_shape(self):
        shape = DatasetShape("tiny", 3, 16, 4)
        images, labels = make_classification_images(5, shape=shape, rng=0)
        assert images.shape == (5, 3, 16, 16)
        assert labels.max() < 4

    @pytest.mark.parametrize("workload", ["mnist_cnn", "mlp"])
    @pytest.mark.parametrize("input_seed", [None, 11])
    def test_kept_templates_give_the_same_bytes(self, workload, input_seed):
        """``Simulator.make_inputs`` keeps its class templates between
        calls; its images and labels are byte-for-byte those of a
        template stream drawn afresh, on every call."""
        from repro import Simulator
        from repro.datasets.synthetic import _seeded_templates
        from repro.utils.rng import derive_seed

        sim = Simulator.from_workload(workload, seed=3, deploy=False)
        first = sim.make_inputs(count=6, input_seed=input_seed)
        images, labels = make_classification_images(
            6,
            shape=sim.dataset,
            rng=(
                derive_seed(3, "infer") if input_seed is None else input_seed
            ),
            template_rng=np.random.default_rng(derive_seed(3, "train")),
        )
        assert first[1].tobytes() == labels.tobytes()
        assert first[0].tobytes() == sim._inputs(images).tobytes()
        again = sim.make_inputs(count=6, input_seed=input_seed)
        assert again[0].tobytes() == first[0].tobytes()
        assert again[1].tobytes() == first[1].tobytes()
        kept = _seeded_templates(
            sim.dataset.classes,
            sim.dataset.channels,
            sim.dataset.size,
            derive_seed(3, "train"),
        )
        assert not kept.flags.writeable
        assert _seeded_templates.cache_info().maxsize <= 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_classification_images(0)
        with pytest.raises(ValueError):
            make_classification_images(5, noise=-1.0)


class TestTrainTest:
    def test_split_sizes(self):
        x_train, y_train, x_test, y_test = make_train_test(30, 10, rng=0)
        assert x_train.shape[0] == 30
        assert x_test.shape[0] == 10
        assert y_train.shape == (30,)
        assert y_test.shape == (10,)

    def test_same_template_family(self):
        """Train and test must come from the same class templates —
        a classifier trained on one generalises to the other."""
        x_train, y_train, x_test, y_test = make_train_test(
            200, 100, noise=0.05, rng=1
        )
        flat_train = x_train.reshape(len(x_train), -1)
        flat_test = x_test.reshape(len(x_test), -1)
        centroids = np.stack(
            [flat_train[y_train == c].mean(axis=0) for c in range(10)
             if np.any(y_train == c)]
        )
        classes = [c for c in range(10) if np.any(y_train == c)]
        predictions = [
            classes[int(np.argmin(
                [np.linalg.norm(x - centroid) for centroid in centroids]
            ))]
            for x in flat_test
        ]
        accuracy = np.mean(np.array(predictions) == y_test)
        assert accuracy > 0.5  # nearest-centroid beats chance easily


class TestGanImages:
    def test_shape_and_range(self):
        images = make_gan_images(20, rng=0)
        assert images.shape == (20, 1, 28, 28)
        assert images.min() >= -1.0
        assert images.max() <= 1.0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            make_gan_images(10, rng=3), make_gan_images(10, rng=3)
        )

    def test_has_structure(self):
        """Real images must differ from white noise: neighbouring
        pixels correlate."""
        images = make_gan_images(50, rng=1)
        horizontal = np.mean(
            images[:, :, :, :-1] * images[:, :, :, 1:]
        ) - np.mean(images) ** 2
        assert horizontal > 0.01

    def test_modes_parameter(self):
        images = make_gan_images(30, modes=2, rng=2)
        assert images.shape[0] == 30

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_gan_images(0)
