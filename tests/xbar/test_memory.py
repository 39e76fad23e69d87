"""Tests for ReRAM memory mode and the morphable workflow."""

import numpy as np
import pytest

from repro.xbar import CrossbarArray, DeviceConfig, PIPELAYER_DEVICE
from repro.xbar.memory import ReRAMMemory


class TestCapacity:
    def test_capacity_words(self):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        assert memory.capacity_words(16) == 64   # 4 cells/word
        assert memory.capacity_words(8) == 128   # 2 cells/word
        assert memory.capacity_words(4) == 256   # 1 cell/word

    def test_non_multiple_width_rounds_up(self):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        assert memory.capacity_words(6) == 128  # 2 cells/word


class TestStoreLoad:
    def test_ideal_round_trip_exact(self, rng):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        values = rng.integers(0, 2**16, size=(8, 8))
        memory.store(values, width=16)
        np.testing.assert_array_equal(memory.load(), values)
        assert memory.bit_error_rate(values) == 0.0

    def test_shape_preserved(self, rng):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        values = rng.integers(0, 256, size=(4, 3, 2))
        memory.store(values, width=8)
        assert memory.load().shape == (4, 3, 2)

    def test_rejects_overflow_values(self):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        with pytest.raises(ValueError):
            memory.store(np.array([256]), width=8)
        with pytest.raises(ValueError):
            memory.store(np.array([-1]), width=8)

    def test_rejects_over_capacity(self, rng):
        memory = ReRAMMemory.create(rows=4, cols=4, rng=0)
        with pytest.raises(ValueError):
            memory.store(rng.integers(0, 2, size=100), width=16)

    def test_load_before_store_raises(self):
        with pytest.raises(RuntimeError):
            ReRAMMemory.create(rows=4, cols=4, rng=0).load()

    def test_mild_noise_survives_sensing(self, rng):
        """Noise below half a level quantum is absorbed by the sense
        amplifier's rounding — the whole point of discrete levels."""
        device = DeviceConfig(program_noise=0.002)
        memory = ReRAMMemory.create(rows=32, cols=32, device=device, rng=1)
        values = rng.integers(0, 2**8, size=100)
        memory.store(values, width=8)
        assert memory.bit_error_rate(values) < 0.02

    def test_heavy_noise_corrupts(self, rng):
        device = DeviceConfig(program_noise=0.5)
        memory = ReRAMMemory.create(rows=32, cols=32, device=device, rng=1)
        values = rng.integers(0, 2**8, size=100)
        memory.store(values, width=8)
        assert memory.bit_error_rate(values) > 0.01

    def test_stuck_cells_cause_deterministic_errors(self, rng):
        device = DeviceConfig(stuck_off_rate=0.05)
        memory = ReRAMMemory.create(rows=32, cols=32, device=device, rng=2)
        values = rng.integers(1, 2**8, size=200)
        memory.store(values, width=8)
        first = memory.load()
        memory.store(values, width=8)
        second = memory.load()
        np.testing.assert_array_equal(first, second)  # same stuck mask
        assert memory.bit_error_rate(values) > 0.0


class TestMorphableWorkflow:
    def test_compute_then_memory_then_compute(self, rng):
        """One physical array alternates between the two modes —
        Fig. 6's morphable subarray, end to end."""
        array = CrossbarArray(16, 16, PIPELAYER_DEVICE, rng=0)

        # Compute mode: weights in, MVM out.
        weights = rng.integers(0, 16, size=(16, 16))
        array.program(weights)
        drive = rng.integers(0, 2, size=(2, 16)).astype(float)
        np.testing.assert_allclose(
            array.mvm(drive), drive @ weights, atol=1e-9
        )

        # Memory mode: same array stores data words.
        memory = ReRAMMemory(array)
        data = rng.integers(0, 2**8, size=64)
        memory.store(data, width=8)
        np.testing.assert_array_equal(memory.load(), data)

        # Back to compute mode: reprogram weights, MVM again.
        array.program(weights)
        np.testing.assert_allclose(
            array.mvm(drive), drive @ weights, atol=1e-9
        )
