"""Tests for repro.core.contiguous: the convex-allocation baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import Request
from repro.core.contiguous import FirstFitSubmesh
from repro.core.metrics import is_contiguous
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh


class TestFirstFitSubmesh:
    def test_empty_machine_allocates_rectangle(self, machine16, mesh16):
        a = FirstFitSubmesh().allocate(Request(size=12, job_id=1), machine16)
        assert a is not None
        xs, ys = mesh16.axis_coords(a.held)
        assert (xs.max() - xs.min() + 1) * (ys.max() - ys.min() + 1) == len(a.held)
        assert is_contiguous(mesh16, a.nodes)

    def test_anchor_is_lowest_row_major(self, machine16, mesh16):
        a = FirstFitSubmesh().allocate(Request(size=4, job_id=1), machine16)
        assert int(a.held.min()) == 0  # bottom-left corner on empty machine

    def test_explicit_shape(self, machine16, mesh16):
        a = FirstFitSubmesh().allocate(
            Request(size=8, job_id=1, shape=(8, 1)), machine16
        )
        ys = mesh16.axis_coords(a.held)[1]
        assert ys.max() == ys.min()

    def test_holds_whole_rectangle(self, machine16):
        a = FirstFitSubmesh().allocate(Request(size=7, job_id=1), machine16)
        # 7 -> 2x4 rectangle: one processor of internal fragmentation.
        assert len(a.held) == 8
        assert a.fragmentation == 1

    def test_blocks_without_free_rectangle(self, mesh8):
        """Enough free processors but no free rectangle -> None (the
        utilization loss the paper describes)."""
        machine = Machine(mesh8)
        # Checkerboard: 32 processors free, but no free 2x2 rectangle.
        busy = [n for n in range(64) if (n // 8 + n % 8) % 2 == 0]
        machine.allocate(busy, job_id=9)
        assert machine.n_free == 32
        a = FirstFitSubmesh().allocate(Request(size=4, job_id=1), machine)
        assert a is None

    def test_rotation_rescues_transposed_hole(self, mesh8):
        """Only a 2x4 (tall) hole exists; a 4x2 request fits via rotation."""
        machine = Machine(mesh8)
        hole = {mesh8.node_id(x, y) for x in (6, 7) for y in range(4)}
        machine.allocate([n for n in range(64) if n not in hole], job_id=9)
        a = FirstFitSubmesh(rotate=True).allocate(
            Request(size=8, job_id=1, shape=(4, 2)), machine
        )
        assert a is not None
        assert set(a.held.tolist()) == hole
        no_rotate = FirstFitSubmesh(rotate=False).allocate(
            Request(size=8, job_id=1, shape=(4, 2)), machine
        )
        assert no_rotate is None

    def test_does_not_mutate_machine(self, machine8):
        before = machine8.snapshot()
        FirstFitSubmesh().allocate(Request(size=6, job_id=1), machine8)
        assert np.array_equal(machine8.snapshot(), before)

    @given(
        k=st.integers(1, 30),
        n_busy=st.integers(0, 30),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_allocations_are_free_rectangles(self, k, n_busy, seed):
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        rng = np.random.default_rng(seed)
        machine.allocate(rng.choice(64, size=n_busy, replace=False), job_id=9)
        a = FirstFitSubmesh().allocate(Request(size=k, job_id=1), machine)
        if a is None:
            return  # blocking is legitimate for the contiguous baseline
        assert len(a.nodes) == k
        assert all(machine.is_free(int(n)) for n in a.held)
        xs, ys = mesh.axis_coords(a.held)
        area = (xs.max() - xs.min() + 1) * (ys.max() - ys.min() + 1)
        assert area == len(a.held) >= k


class TestSimulationWithContiguous:
    def test_trace_completes(self):
        """FCFS with the contiguous baseline drains without deadlock."""
        from repro.core.registry import make_allocator
        from repro.patterns.base import get_pattern
        from repro.sched.job import Job
        from repro.sched.simulator import Simulation

        rng = np.random.default_rng(0)
        jobs = [
            Job(i, float(5 * i), int(rng.integers(1, 30)), 20.0)
            for i in range(30)
        ]
        sim = Simulation(
            Mesh(8, 8),
            make_allocator("contiguous"),
            get_pattern("all-to-all"),
            jobs,
        )
        result = sim.run()
        assert len(result.jobs) == 30
        assert result.fraction_contiguous() == 1.0
