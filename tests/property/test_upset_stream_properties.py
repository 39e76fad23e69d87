"""The transient-upset stream draws only the upsets that fire.

``DeviceModel.transient_upset_levels(shape)`` hands out the upsets of
the next ``prod(shape)`` outputs as flat positions plus amplitudes,
drawn as geometric gaps and one uniform per upset.  Its contracts:

* partition invariance: however a run of outputs is split into calls
  (empty calls included), the upsets are those of one call over the
  whole run, so the vectorized backend's stacked chunks see the loop
  backend's per-sub-cycle upsets;
* positions are strictly increasing and inside the call, amplitudes
  lie within ``±upset_levels``;
* each output is upset with probability ``upset_rate``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xbar.device import DeviceConfig, DeviceModel

RATES = (1e-3, 0.05, 0.2, 1.0)


def _model(rate, seed, magnitude=None):
    return DeviceModel(
        DeviceConfig(upset_rate=rate, upset_magnitude=magnitude), rng=seed
    )


@settings(max_examples=60, deadline=None)
@given(
    rate=st.sampled_from(RATES),
    seed=st.integers(0, 2**31 - 1),
    magnitude=st.sampled_from([None, 0.5, 3.0]),
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(1, 40), st.integers(1, 3000)),
        max_size=12,
    ),
)
def test_any_partition_of_calls_sees_the_same_upsets(
    rate, seed, magnitude, sizes
):
    whole = _model(rate, seed, magnitude)
    total = sum(sizes)
    expected_positions, expected_amplitudes = whole.transient_upset_levels(
        (total,)
    )
    split = _model(rate, seed, magnitude)
    positions, amplitudes, start = [], [], 0
    for size in sizes:
        # A 2-D call: positions are flat C-order indices into its shape.
        shape = (size, 1) if size % 2 else (1, size)
        hits, impulses = split.transient_upset_levels(shape)
        assert np.all(np.diff(hits) > 0)
        assert np.all((hits >= 0) & (hits < size))
        positions.append(hits + start)
        amplitudes.append(impulses)
        start += size
    np.testing.assert_array_equal(
        np.concatenate(positions + [np.zeros(0, dtype=np.int64)]),
        expected_positions,
    )
    np.testing.assert_array_equal(
        np.concatenate(amplitudes + [np.zeros(0)]), expected_amplitudes
    )
    bound = whole.config.upset_levels
    assert np.all(np.abs(expected_amplitudes) <= bound)
    if rate == 1.0:
        np.testing.assert_array_equal(expected_positions, np.arange(total))


@settings(max_examples=10, deadline=None)
@given(
    rate=st.sampled_from([1e-3, 0.2]),
    seed=st.integers(0, 2**31 - 1),
)
def test_upset_frequency_is_binomial(rate, seed):
    outputs = 2_000_000 if rate < 0.01 else 100_000
    model = _model(rate, seed)
    fired = 0
    for _ in range(4):
        fired += model.transient_upset_levels((outputs // 4,))[0].size
    mean = outputs * rate
    sigma = math.sqrt(outputs * rate * (1.0 - rate))
    # Six standard deviations: a false alarm is a ~1e-9 event.
    assert abs(fired - mean) <= 6.0 * sigma, (fired, mean, sigma)
