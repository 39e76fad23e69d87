"""Tests for the bank/subarray organisation (Figs. 6 and 10)."""

import pytest

from repro.arch.subarray import Bank, Subarray, SubarrayKind, SubarrayMode


class TestSubarray:
    def test_morphable_starts_in_memory_mode(self):
        subarray = Subarray(index=0, kind=SubarrayKind.MORPHABLE)
        assert subarray.mode is SubarrayMode.MEMORY

    def test_morphable_switches(self):
        subarray = Subarray(index=0, kind=SubarrayKind.MORPHABLE)
        subarray.switch_mode(SubarrayMode.COMPUTE)
        assert subarray.mode is SubarrayMode.COMPUTE
        assert subarray.mode_switches == 1

    def test_redundant_switch_not_counted(self):
        subarray = Subarray(index=0, kind=SubarrayKind.MORPHABLE)
        subarray.switch_mode(SubarrayMode.MEMORY)
        assert subarray.mode_switches == 0

    def test_fixed_function_refuses_switch(self):
        subarray = Subarray(index=0, kind=SubarrayKind.MEMORY)
        with pytest.raises(ValueError):
            subarray.switch_mode(SubarrayMode.COMPUTE)

    def test_cells(self):
        assert Subarray(index=0, kind=SubarrayKind.BUFFER).cells == 128 * 128


class TestBank:
    def make_bank(self):
        return Bank(morphable_count=8, memory_count=4, buffer_count=2)

    def test_three_regions(self):
        bank = self.make_bank()
        assert len(bank.of_kind(SubarrayKind.MORPHABLE)) == 8
        assert len(bank.of_kind(SubarrayKind.MEMORY)) == 4
        assert len(bank.of_kind(SubarrayKind.BUFFER)) == 2

    def test_assign_compute(self):
        bank = self.make_bank()
        taken = bank.assign_compute("conv1", 3)
        assert len(taken) == 3
        assert all(s.mode is SubarrayMode.COMPUTE for s in taken)
        assert len(bank.free_morphable()) == 5

    def test_assign_exhaustion(self):
        bank = self.make_bank()
        bank.assign_compute("conv1", 6)
        with pytest.raises(RuntimeError):
            bank.assign_compute("conv2", 3)

    def test_release_returns_to_memory(self):
        bank = self.make_bank()
        bank.assign_compute("conv1", 4)
        released = bank.release("conv1")
        assert released == 4
        assert len(bank.free_morphable()) == 8
        morphable = bank.of_kind(SubarrayKind.MORPHABLE)
        assert all(s.mode is SubarrayMode.MEMORY for s in morphable)

    def test_release_other_owner_untouched(self):
        bank = self.make_bank()
        bank.assign_compute("conv1", 2)
        bank.assign_compute("conv2", 2)
        bank.release("conv1")
        assert len(bank.free_morphable()) == 6

    def test_utilisation(self):
        bank = self.make_bank()
        bank.assign_compute("conv1", 2)
        bank.assign_compute("conv2", 4)
        utilisation = bank.utilisation()
        assert utilisation["conv1"] == pytest.approx(0.25)
        assert utilisation["conv2"] == pytest.approx(0.5)

    def test_rejects_empty_regions(self):
        with pytest.raises(ValueError):
            Bank(morphable_count=0, memory_count=1, buffer_count=1)
