"""Exhaustive goldens for the drive coders, the ADC, the exactness rule
and the bit-slice weight mapping.

Testbench style: drive every code through the unit under test and
compare each sample with a closed form written independently of the
implementation.  These pin the datapath semantics both crossbar
backends share.
"""

import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.xbar.adc import ADCConfig, quantize_levels
from repro.xbar.dac import AnalogDAC, InputEncoding, RateCoder, SpikeCoder
from repro.xbar.device import NOISY_DEVICE, PIPELAYER_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig
from repro.xbar.mapping import WeightMapping, map_weights


@pytest.mark.parametrize("bits", range(1, 9))
class TestDriveGoldens:
    def test_spike_planes_are_bits_lsb_first(self, bits):
        codes = np.arange(2**bits)
        coder = SpikeCoder(InputEncoding(bits=bits))
        planes = np.asarray(coder.decompose(codes))
        expected = np.array(
            [[(int(code) >> j) & 1 for code in codes] for j in range(bits)],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(planes, expected)
        assert coder.subcycles == bits
        np.testing.assert_array_equal(
            coder.plane_weights, [2.0**j for j in range(bits)]
        )
        recombined = sum(2**j * planes[j] for j in range(bits))
        np.testing.assert_array_equal(recombined, codes)
        np.testing.assert_array_equal(coder.accumulate(planes), codes)

    def test_rate_planes_are_unary(self, bits):
        codes = np.arange(2**bits)
        coder = RateCoder(InputEncoding(bits=bits))
        planes = np.asarray(coder.decompose(codes))
        expected = np.array(
            [[1.0 if code > j else 0.0 for code in codes]
             for j in range(2**bits - 1)]
        )
        np.testing.assert_array_equal(planes, expected)
        assert coder.subcycles == 2**bits - 1
        np.testing.assert_array_equal(
            coder.plane_weights, np.ones(2**bits - 1)
        )
        np.testing.assert_array_equal(coder.accumulate(planes), codes)

    def test_analog_drive_is_one_plane_equal_to_the_code(self, bits):
        codes = np.arange(2**bits)
        dac = AnalogDAC(InputEncoding(bits=bits))
        planes = np.asarray(dac.decompose(codes))
        np.testing.assert_array_equal(planes, codes[None, :].astype(float))
        assert dac.subcycles == 1
        np.testing.assert_array_equal(dac.plane_weights, [1.0])
        np.testing.assert_array_equal(dac.accumulate(planes), codes)


@pytest.mark.parametrize(
    "adc",
    [ADCConfig.lossless_for(64, 16), ADCConfig(bits=4, full_scale_levels=960.0)],
    ids=["lossless", "lossy"],
)
def test_quantize_levels_snaps_every_count(adc):
    """Each count ``c`` owns ``c*step ± step/2``; beyond the range, clip."""
    step = adc.full_scale_levels / adc.max_count
    counts = np.arange(adc.max_count + 1)
    for offset in (-0.49, -0.25, 0.0, 0.25, 0.49):
        stimulus = (counts + offset) * step
        np.testing.assert_array_equal(
            quantize_levels(stimulus, adc), counts * step
        )
    np.testing.assert_array_equal(
        quantize_levels(np.array([-3.0 * step, -1e9]), adc), [0.0, 0.0]
    )
    np.testing.assert_array_equal(
        quantize_levels(
            np.array([adc.full_scale_levels + step, 1e9]), adc
        ),
        [adc.max_count * step] * 2,
    )
    if step == 1.0:
        integers = np.arange(adc.max_count + 1, dtype=np.float64)
        np.testing.assert_array_equal(quantize_levels(integers, adc), integers)


ROWS = 64


def _device(**changes):
    return replace(PIPELAYER_DEVICE, **changes)


#: (config changes, patched ADC or None, (is_linear, is_collapsible,
#: is_ideal)).  The patched rows put a hand-built converter behind a
#: 64-row array of 16-level cells (worst-case binary column sum 960).
TRUTH_TABLE = {
    "clean": ({}, None, (True, True, True)),
    "program-noise": (
        dict(device=_device(program_noise=0.05)), None, (True, False, False)
    ),
    "ir-drop": (
        dict(device=_device(wire_resistance=1.0)), None, (True, False, False)
    ),
    "stuck-cells": (
        dict(device=_device(stuck_off_rate=0.01, stuck_on_rate=0.01)),
        None,
        (True, True, False),
    ),
    "read-noise": (
        dict(device=_device(read_noise=0.1)), None, (False, False, False)
    ),
    "drift": (dict(device=_device(drift_nu=0.05)), None, (False, False, False)),
    "upsets": (
        dict(device=_device(upset_rate=1e-3)), None, (False, False, False)
    ),
    "lossy-adc": (dict(adc_bits=4), None, (False, False, False)),
    # Range covers 960 but one count is 2000/1023 levels: only the
    # zero code converts exactly.
    "bits10-fs2000": (
        {}, ADCConfig(bits=10, full_scale_levels=2000.0), (False, False, False)
    ),
    # A unit grid sized for 32 rows: 511 counts cannot reach 960.
    "unit-grid-short-range": (
        {}, ADCConfig.lossless_for(32, 16), (False, False, False)
    ),
}


class TestExactness:
    def test_truth_table(self):
        for mode in ("spike", "rate", "analog"):
            for name, (changes, adc, expected) in TRUTH_TABLE.items():
                config = CrossbarEngineConfig(
                    array_rows=ROWS,
                    array_cols=ROWS,
                    input_mode=mode,
                    encoding=InputEncoding(bits=4),
                    **changes,
                )
                with mock.patch.object(
                    CrossbarEngineConfig,
                    "adc_config",
                    return_value=adc or config.adc_config(),
                ):
                    got = (
                        config.is_linear,
                        config.is_collapsible,
                        config.is_ideal,
                    )
                    assert got == expected, (mode, name, got)
                    # The exactness rule agrees with sweeping every
                    # integer column sum through the converter.
                    bound = config.column_sum_bound
                    sums = np.arange(bound + 1, dtype=np.float64)
                    exact = np.array_equal(
                        quantize_levels(sums, config.adc_config()), sums
                    )
                    assert config.adc_is_exact == exact, (mode, name)


@pytest.mark.parametrize("scheme", ["differential", "offset"])
@pytest.mark.parametrize("cell_bits", range(1, 5))
@pytest.mark.parametrize("weight_bits", range(2, 10))
def test_bit_slices_reconstruct_every_integer(weight_bits, cell_bits, scheme):
    mapping = WeightMapping(
        weight_bits=weight_bits, cell_bits=cell_bits, scheme=scheme
    )
    top = 2 ** (weight_bits - 1) - 1
    integers = np.arange(-top, top + 1)
    sliced = map_weights(integers[None, :].astype(np.float64), mapping)
    assert sliced.scale == 1.0
    radix = 2**cell_bits
    # Closed form: the unsigned value each sign plane stores, and its
    # base-2**cell_bits digits, LSB first.
    if scheme == "differential":
        stored = {
            "pos": np.maximum(integers, 0),
            "neg": np.maximum(-integers, 0),
        }
    else:
        stored = {"pos": integers + top, "neg": np.zeros_like(integers)}
    planes = {"pos": sliced.pos_slices, "neg": sliced.neg_slices}
    for sign, slices in planes.items():
        for index, plane in enumerate(slices):
            assert plane.shape == (1, integers.size)
            assert np.all((plane >= 0) & (plane < radix)), (sign, index)
            digit = (stored[sign] // radix**index) % radix
            np.testing.assert_array_equal(plane[0], digit)
        # Every stored bit lands in some slice.
        assert np.all(stored[sign] < radix ** len(slices))
    positive = sum(plane[0] for plane in sliced.pos_slices)
    negative = sum(plane[0] for plane in sliced.neg_slices)
    if scheme == "differential":
        assert not np.any((positive > 0) & (negative > 0))
    else:
        assert not np.any(negative)
    np.testing.assert_array_equal(sliced.reconstruct()[0], integers)


#: sha256 over both backends' outputs for three calls of one noisy
#: layer.  Loop == vectorized only shows that the backends agree; this
#: pins the read-path streams themselves (read noise, drift, upsets),
#: the ADC and the accumulation order, so a change to any of them that
#: moves both backends alike still fails here.
READ_PATH_GOLDEN = (
    "471a3ee176f972350d806094b4b2a0b161f0b6a9de579f787b250f98f71c7f59"
)


def test_read_path_streams_golden():
    device = replace(NOISY_DEVICE, drift_nu=0.05, upset_rate=0.02)
    data = np.random.default_rng(2024)
    weights = data.normal(size=(40, 24))
    batches = [data.normal(size=(4, 40)) for _ in range(3)]
    outputs = {}
    for backend in ("loop", "vectorized"):
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                device=device,
                adc_bits=3,
                array_rows=16,
                array_cols=16,
                fast_ideal=False,
                backend=backend,
            ),
            rng=7,
        )
        engine.prepare(weights)
        outputs[backend] = [engine.matmul(batch) for batch in batches]
    for loop, vectorized in zip(outputs["loop"], outputs["vectorized"]):
        assert np.array_equal(loop, vectorized)
    digest = hashlib.sha256()
    for backend in ("loop", "vectorized"):
        for output in outputs[backend]:
            digest.update(output.tobytes())
    assert digest.hexdigest() == READ_PATH_GOLDEN
