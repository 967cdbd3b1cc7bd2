"""Tests for repro.mesh.machine."""

import numpy as np
import pytest

from repro.mesh.machine import AllocationError, Machine
from repro.mesh.topology import Mesh


class TestMachineBasics:
    def test_starts_all_free(self, machine8):
        assert machine8.n_free == 64
        assert machine8.n_busy == 0
        assert machine8.utilization() == 0.0
        assert np.all(machine8.free_mask)

    def test_allocate_marks_busy(self, machine8):
        machine8.allocate([0, 1, 2], job_id=7)
        assert machine8.n_free == 61
        assert not machine8.is_free(0)
        assert machine8.is_free(3)
        assert machine8.owner[1] == 7
        assert machine8.owner[3] == -1

    def test_release_restores(self, machine8):
        machine8.allocate([0, 1, 2], job_id=7)
        machine8.release([0, 1, 2])
        assert machine8.n_free == 64
        assert machine8.owner[0] == -1

    def test_free_and_busy_nodes(self, machine8):
        machine8.allocate([5, 10], job_id=1)
        assert machine8.busy_nodes().tolist() == [5, 10]
        assert 5 not in machine8.free_nodes()
        assert len(machine8.free_nodes()) == 62

    def test_utilization(self, machine8):
        machine8.allocate(range(32), job_id=1)
        assert machine8.utilization() == pytest.approx(0.5)


class TestMachineErrors:
    def test_double_allocate(self, machine8):
        machine8.allocate([3], job_id=1)
        with pytest.raises(AllocationError):
            machine8.allocate([3], job_id=2)

    def test_double_release(self, machine8):
        machine8.allocate([3], job_id=1)
        machine8.release([3])
        with pytest.raises(AllocationError):
            machine8.release([3])

    def test_duplicate_nodes_rejected(self, machine8):
        with pytest.raises(AllocationError):
            machine8.allocate([1, 1], job_id=1)

    def test_out_of_range(self, machine8):
        with pytest.raises(AllocationError):
            machine8.allocate([64], job_id=1)
        with pytest.raises(AllocationError):
            machine8.release([-1])

    def test_failed_allocate_leaves_state_unchanged(self, machine8):
        machine8.allocate([5], job_id=1)
        before = machine8.snapshot()
        with pytest.raises(AllocationError):
            machine8.allocate([4, 5], job_id=2)
        assert np.array_equal(machine8.snapshot(), before)

    def test_free_mask_read_only(self, machine8):
        with pytest.raises(ValueError):
            machine8.free_mask[0] = False

    def test_owner_read_only(self, machine8):
        with pytest.raises(ValueError):
            machine8.owner[0] = 5


class TestMachineLifecycle:
    def test_empty_allocate_noop(self, machine8):
        machine8.allocate([], job_id=1)
        assert machine8.n_free == 64

    def test_reset(self, machine8):
        machine8.allocate([1, 2, 3], job_id=1)
        machine8.reset()
        assert machine8.n_free == 64

    def test_interleaved_jobs(self, machine8):
        machine8.allocate([0, 1], job_id=1)
        machine8.allocate([2, 3], job_id=2)
        machine8.release([0, 1])
        machine8.allocate([0, 4], job_id=3)
        assert machine8.owner[0] == 3
        assert machine8.owner[2] == 2
        assert machine8.n_busy == 4

    def test_fill_and_drain(self):
        machine = Machine(Mesh(4, 4))
        machine.allocate(range(16), job_id=1)
        assert machine.n_free == 0
        machine.release(range(16))
        assert machine.n_free == 16
