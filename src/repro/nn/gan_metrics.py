"""GAN evaluation metrics for the synthetic-blob distribution.

The paper evaluates ReGAN on throughput/energy, not sample quality, but
any credible GAN training claim needs a quality signal.  Without
pretrained feature extractors (no FID offline), we use metrics that the
synthetic data makes exact:

* **mode coverage** — the blob distribution has a known, finite set of
  modes (templates); coverage is the fraction of modes that some
  generated sample lands nearest to.  Mode collapse shows up directly.
* **sample diversity** — mean pairwise L2 distance between generated
  samples; collapse also crushes this.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def mode_assignments(
    samples: np.ndarray, templates: np.ndarray
) -> np.ndarray:
    """Index of the nearest template (L2) for each sample."""
    samples = np.asarray(samples, dtype=np.float64)
    templates = np.asarray(templates, dtype=np.float64)
    if samples.shape[1:] != templates.shape[1:]:
        raise ValueError(
            f"sample shape {samples.shape[1:]} != template shape "
            f"{templates.shape[1:]}"
        )
    flat_samples = samples.reshape(len(samples), -1)
    flat_templates = templates.reshape(len(templates), -1)
    distances = np.linalg.norm(
        flat_samples[:, None, :] - flat_templates[None, :, :], axis=2
    )
    return distances.argmin(axis=1)


def mode_coverage(samples: np.ndarray, templates: np.ndarray) -> float:
    """Fraction of modes hit by at least one sample (1.0 = no collapse)."""
    assignments = mode_assignments(samples, templates)
    return len(np.unique(assignments)) / len(templates)


def mode_histogram(
    samples: np.ndarray, templates: np.ndarray
) -> np.ndarray:
    """Sample count per mode (a collapsed GAN piles onto few bins)."""
    assignments = mode_assignments(samples, templates)
    return np.bincount(assignments, minlength=len(templates))


def sample_diversity(samples: np.ndarray) -> float:
    """Mean pairwise L2 distance between samples."""
    samples = np.asarray(samples, dtype=np.float64)
    check_positive("samples", len(samples))
    if len(samples) < 2:
        return 0.0
    flat = samples.reshape(len(samples), -1)
    total, count = 0.0, 0
    for index in range(len(flat)):
        rest = flat[index + 1 :]
        total += float(
            np.sum(np.linalg.norm(rest - flat[index], axis=1))
        )
        count += len(rest)
    return total / count
