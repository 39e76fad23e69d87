"""Tests for CrossbarArray and TiledCrossbar (Fig. 3)."""

import numpy as np
import pytest

from repro.utils.rng import new_rng
from repro.xbar.adc import ADCConfig, quantize_levels
from repro.xbar.crossbar import CrossbarArray
from repro.xbar.device import DeviceConfig, DeviceModel, PIPELAYER_DEVICE
from repro.xbar.tile import TiledCrossbar, tile_grid


class TestCrossbarArray:
    def test_ideal_binary_mvm_exact(self, rng):
        """Fig. 3(a,b): bit-line current == matrix-vector product."""
        array = CrossbarArray(16, 8, PIPELAYER_DEVICE, rng=0)
        levels = rng.integers(0, 16, size=(16, 8))
        array.program(levels)
        drive = rng.integers(0, 2, size=(5, 16)).astype(float)
        np.testing.assert_allclose(array.mvm(drive), drive @ levels, atol=1e-9)

    def test_partial_matrix_padded_with_zero_level(self, rng):
        array = CrossbarArray(8, 8, PIPELAYER_DEVICE, rng=0)
        array.program(np.full((3, 4), 5))
        drive = np.ones((1, 8))
        out = array.mvm(drive)
        np.testing.assert_allclose(out[0, :4], 15.0, atol=1e-9)
        np.testing.assert_allclose(out[0, 4:], 0.0, atol=1e-9)

    def test_1d_drive_promoted(self, rng):
        array = CrossbarArray(4, 4, PIPELAYER_DEVICE, rng=0)
        array.program(np.eye(4, dtype=int) * 3)
        out = array.mvm(np.ones(4))
        assert out.shape == (1, 4)

    def test_mvm_before_program_raises(self):
        with pytest.raises(RuntimeError):
            CrossbarArray(4, 4, PIPELAYER_DEVICE).mvm(np.ones(4))

    def test_rejects_negative_drive(self, rng):
        array = CrossbarArray(4, 4, PIPELAYER_DEVICE, rng=0)
        array.program(np.zeros((4, 4), dtype=int))
        with pytest.raises(ValueError):
            array.mvm(np.array([-1.0, 0, 0, 0]))

    def test_rejects_oversize_matrix(self):
        array = CrossbarArray(4, 4, PIPELAYER_DEVICE)
        with pytest.raises(ValueError):
            array.program(np.zeros((5, 4), dtype=int))

    def test_read_noise_perturbs_output(self, rng):
        device = DeviceConfig(read_noise=0.5)
        array = CrossbarArray(16, 16, device, rng=1)
        levels = rng.integers(0, 16, size=(16, 16))
        array.program(levels)
        drive = np.ones((1, 16))
        outputs = np.concatenate([array.mvm(drive) for _ in range(50)])
        assert np.std(outputs, axis=0).mean() > 0.1

    def test_exact_mvm_ignores_read_path(self, rng):
        device = DeviceConfig(read_noise=2.0)
        array = CrossbarArray(8, 8, device, rng=1)
        levels = rng.integers(0, 16, size=(8, 8))
        array.program(levels)
        drive = rng.integers(0, 2, size=(3, 8)).astype(float)
        np.testing.assert_allclose(
            array.exact_mvm(drive), drive @ levels, atol=1e-9
        )
        np.testing.assert_allclose(
            array.exact_mvm(drive), array.exact_mvm(drive)
        )

    def test_low_resolution_adc_quantizes(self, rng):
        adc = ADCConfig(bits=3, full_scale_levels=float(8 * 15))
        array = CrossbarArray(8, 8, PIPELAYER_DEVICE, adc=adc, rng=0)
        levels = rng.integers(0, 16, size=(8, 8))
        array.program(levels)
        drive = rng.integers(0, 2, size=(4, 8)).astype(float)
        out = array.mvm(drive)
        step = adc.full_scale_levels / adc.max_count
        np.testing.assert_allclose(
            out / step, np.rint(out / step), atol=1e-9
        )


class TestPaddedBitLines:
    """Bit lines past the programmed width are not simulated."""

    def test_only_live_columns_draw_or_convert(self, rng):
        device = DeviceConfig(upset_rate=0.3)
        rows, cols, live, batch = 8, 8, 3, 4
        array = CrossbarArray(rows, cols, device, rng=21)
        levels = rng.integers(0, 16, size=(rows, live))
        array.program(levels)
        assert array.live_cols == live
        # Twin of the array's device model: same seed, same streams.
        twin = DeviceModel(device, rng=new_rng(21))
        for _ in range(3):
            drive = rng.integers(0, 2, size=(batch, rows)).astype(float)
            out = array.mvm(drive)
            positions, amplitudes = twin.transient_upset_levels((batch, live))
            impulses = np.zeros((batch, live))
            impulses.flat[positions] = amplitudes
            assert out.shape == (batch, cols)
            np.testing.assert_array_equal(
                out[:, :live],
                quantize_levels(drive @ levels + impulses, array.adc),
            )
            # Padded bit lines read as exact zeros.
            assert np.all(out[:, live:] == 0.0)
        # The transient stream advanced by exactly batch x live outputs
        # per mvm: the next upsets still agree with the twin.
        for ours, theirs in zip(
            array.transient_upset_levels((50,)),
            twin.transient_upset_levels((50,)),
        ):
            np.testing.assert_array_equal(ours, theirs)


class TestTileGrid:
    @pytest.mark.parametrize(
        "rows,cols,ar,ac,expected",
        [
            (1152, 256, 128, 128, (9, 2)),  # Fig. 4's 18-array group
            (128, 128, 128, 128, (1, 1)),
            (129, 1, 128, 128, (2, 1)),
            (100, 100, 128, 128, (1, 1)),
        ],
    )
    def test_known_grids(self, rows, cols, ar, ac, expected):
        assert tile_grid(rows, cols, ar, ac) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tile_grid(0, 1, 128, 128)


class TestTiledCrossbar:
    def test_fig3c_partitioned_mvm(self, rng):
        """Partial sums collected horizontally, summed vertically."""
        tiled = TiledCrossbar(40, 24, PIPELAYER_DEVICE, array_rows=16,
                              array_cols=16, rng=0)
        levels = rng.integers(0, 16, size=(40, 24))
        tiled.program(levels)
        drive = rng.integers(0, 2, size=(6, 40)).astype(float)
        np.testing.assert_allclose(tiled.mvm(drive), drive @ levels, atol=1e-9)

    def test_array_count(self):
        tiled = TiledCrossbar(1152, 256, PIPELAYER_DEVICE)
        assert tiled.array_count == 18  # the paper's 9 x 2 group

    def test_matches_single_array_when_it_fits(self, rng):
        levels = rng.integers(0, 16, size=(30, 20))
        tiled = TiledCrossbar(30, 20, PIPELAYER_DEVICE, array_rows=32,
                              array_cols=32, rng=0)
        tiled.program(levels)
        single = CrossbarArray(32, 32, PIPELAYER_DEVICE, rng=0)
        single.program(levels)
        drive = rng.integers(0, 2, size=(4, 30)).astype(float)
        padded = np.zeros((4, 32))
        padded[:, :30] = drive
        np.testing.assert_allclose(
            tiled.mvm(drive), single.mvm(padded)[:, :20], atol=1e-9
        )

    def test_program_shape_check(self):
        tiled = TiledCrossbar(10, 10, PIPELAYER_DEVICE, array_rows=8,
                              array_cols=8)
        with pytest.raises(ValueError):
            tiled.program(np.zeros((9, 10), dtype=int))

    def test_mvm_width_check(self, rng):
        tiled = TiledCrossbar(10, 10, PIPELAYER_DEVICE, array_rows=8,
                              array_cols=8, rng=0)
        tiled.program(np.zeros((10, 10), dtype=int))
        with pytest.raises(ValueError):
            tiled.mvm(np.ones((1, 9)))

    def test_independent_noise_across_arrays(self):
        device = DeviceConfig(program_noise=0.2)
        tiled = TiledCrossbar(256, 128, device, rng=7)
        tiled.program(np.full((256, 128), 8))
        top = tiled.arrays[0][0].effective_levels()
        bottom = tiled.arrays[1][0].effective_levels()
        assert not np.allclose(top, bottom)
