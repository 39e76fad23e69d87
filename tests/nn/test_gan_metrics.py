"""Tests for GAN quality metrics on the synthetic mode distribution."""

import numpy as np
import pytest

from repro.datasets import DatasetShape, gan_mode_templates, make_gan_images
from repro.nn.gan_metrics import (
    mode_assignments,
    mode_coverage,
    mode_histogram,
    sample_diversity,
)

SHAPE = DatasetShape("blobs", 1, 16, 2)


class TestModeAssignments:
    def test_templates_map_to_themselves(self, rng):
        templates = gan_mode_templates(SHAPE, modes=4, rng=3)
        assignments = mode_assignments(templates, templates)
        np.testing.assert_array_equal(assignments, np.arange(4))

    def test_shape_mismatch_rejected(self, rng):
        templates = gan_mode_templates(SHAPE, modes=4, rng=3)
        with pytest.raises(ValueError):
            mode_assignments(rng.normal(size=(2, 1, 8, 8)), templates)


class TestModeCoverage:
    def test_real_data_covers_all_modes(self):
        """Samples drawn from the distribution hit every mode —
        consistency of templates with make_gan_images."""
        templates = gan_mode_templates(SHAPE, modes=4, rng=7)
        samples = make_gan_images(64, SHAPE, modes=4, rng=7)
        assert mode_coverage(samples, templates) == 1.0

    def test_collapsed_samples_low_coverage(self):
        templates = gan_mode_templates(SHAPE, modes=4, rng=7)
        collapsed = np.repeat(templates[:1], 20, axis=0)
        assert mode_coverage(collapsed, templates) == 0.25

    def test_histogram_sums_to_samples(self):
        templates = gan_mode_templates(SHAPE, modes=4, rng=7)
        samples = make_gan_images(32, SHAPE, modes=4, rng=7)
        histogram = mode_histogram(samples, templates)
        assert histogram.sum() == 32
        assert len(histogram) == 4

    def test_real_data_histogram_roughly_uniform(self):
        templates = gan_mode_templates(SHAPE, modes=4, rng=7)
        samples = make_gan_images(400, SHAPE, modes=4, rng=7)
        histogram = mode_histogram(samples, templates)
        assert histogram.min() > 0.5 * 100  # ~100 expected per mode

class TestDiversity:
    def test_identical_samples_zero(self):
        samples = np.ones((5, 1, 4, 4))
        assert sample_diversity(samples) == 0.0

    def test_single_sample_zero(self, rng):
        assert sample_diversity(rng.normal(size=(1, 1, 4, 4))) == 0.0

    def test_spread_beats_collapse(self, rng):
        spread = rng.normal(size=(10, 1, 4, 4))
        collapsed = np.repeat(spread[:1], 10, axis=0)
        assert sample_diversity(spread) > sample_diversity(collapsed)

    def test_matches_brute_force(self, rng):
        samples = rng.normal(size=(6, 2, 3, 3))
        flat = samples.reshape(6, -1)
        total, count = 0.0, 0
        for i in range(6):
            for j in range(i + 1, 6):
                total += np.linalg.norm(flat[i] - flat[j])
                count += 1
        assert sample_diversity(samples) == pytest.approx(total / count)
