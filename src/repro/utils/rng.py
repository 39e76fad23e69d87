"""Seeded random-number-generator helpers.

Every stochastic component in the simulator (device programming noise,
read noise, fault injection, weight initialisation, synthetic datasets)
takes an explicit :class:`numpy.random.Generator`.  This module is the
single place that creates them, so experiments are reproducible
end-to-end from a single integer seed.

Both derivation helpers (:func:`spawn_rngs`, :func:`derive_seed`) are
*pure* in the caller's generator: when handed a live ``Generator`` they
read its current state through a copy instead of drawing from it, so
deriving child streams never advances the parent.  Two runs that make
the same calls therefore get the same streams regardless of how many
children were derived in between — the property the reliability
campaigns lean on when they sweep one fault knob at a fixed seed.
"""

from __future__ import annotations

import copy
import zlib
from typing import List, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

DEFAULT_SEED = 0xD47E  # "DATE", the venue


def new_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` uses :data:`DEFAULT_SEED`; an ``int`` seeds a fresh
        generator; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def _seed_from_generator(generator: np.random.Generator, bound: int) -> int:
    """Deterministic integer seed from a generator's *current state*.

    Draws from a deep copy so the caller's stream is not consumed:
    deriving children is observation, not mutation.  The same generator
    state always yields the same seed.
    """
    return int(copy.deepcopy(generator).integers(0, bound))


def spawn_rngs(seed: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning so the children are
    statistically independent regardless of how many are requested.
    Passing a live ``Generator`` does **not** advance it (the child
    seeds are a pure function of its current state).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        seed = _seed_from_generator(seed, 2**63 - 1)
    if seed is None:
        seed = DEFAULT_SEED
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_seed(seed: RngLike, salt: str) -> int:
    """Derive a deterministic child seed from ``seed`` and a label.

    Useful when a component needs a reproducible sub-seed keyed by a
    human-readable name (e.g. one stream per layer).  The salt is mixed
    in through ``zlib.crc32`` — a stable, position-sensitive hash — so
    distinct labels cannot alias to the same stream the way a
    positional byte sum can (``"bc"`` and ``"db"`` collide under a
    weighted sum).  Passing a live ``Generator`` does not advance it.
    """
    if isinstance(seed, np.random.Generator):
        seed = _seed_from_generator(seed, 2**31 - 1)
    if seed is None:
        seed = DEFAULT_SEED
    salt_value = zlib.crc32(salt.encode("utf-8"))
    return (int(seed) * 0x9E3779B1 + salt_value) % (2**31 - 1)

