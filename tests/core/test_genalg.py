"""Tests for repro.core.genalg (Fig 3's algorithm)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import Request
from repro.core.genalg import GenAlgAllocator, _axis_pairwise_sums
from repro.core.metrics import average_pairwise_hops, total_pairwise_hops
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh


class TestAxisPairwiseSums:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 20, size=(5, 7))
        fast = _axis_pairwise_sums(coords)
        for row, got in zip(coords, fast):
            brute = sum(
                abs(int(a) - int(b)) for a, b in itertools.combinations(row, 2)
            )
            assert int(got) == brute

    def test_single_column(self):
        assert _axis_pairwise_sums(np.array([[5], [9]])).tolist() == [0, 0]


class TestGenAlg:
    def test_empty_machine_is_compact(self, machine16, mesh16):
        a = GenAlgAllocator().allocate(Request(size=9, job_id=1), machine16)
        assert len(a.nodes) == 9
        assert average_pairwise_hops(mesh16, a.nodes) <= 2.5

    def test_single_processor(self, machine16):
        a = GenAlgAllocator().allocate(Request(size=1, job_id=1), machine16)
        assert len(a.nodes) == 1

    def test_whole_machine(self, mesh8):
        machine = Machine(mesh8)
        a = GenAlgAllocator().allocate(Request(size=64, job_id=1), machine)
        assert sorted(a.nodes.tolist()) == list(range(64))

    def test_returns_none_when_infeasible(self, mesh8):
        machine = Machine(mesh8)
        machine.allocate(range(60), job_id=9)
        assert GenAlgAllocator().allocate(Request(size=5, job_id=1), machine) is None

    def test_only_uses_free_processors(self, mesh8):
        machine = Machine(mesh8)
        machine.allocate(range(0, 64, 2), job_id=9)  # checkerboard-ish
        a = GenAlgAllocator().allocate(Request(size=10, job_id=1), machine)
        assert all(machine.is_free(int(n)) for n in a.nodes)

    def test_does_not_mutate_machine(self, machine8):
        before = machine8.snapshot()
        GenAlgAllocator().allocate(Request(size=5, job_id=1), machine8)
        assert np.array_equal(machine8.snapshot(), before)

    def test_deterministic(self, mesh16):
        m1, m2 = Machine(mesh16), Machine(mesh16)
        a1 = GenAlgAllocator().allocate(Request(size=13, job_id=1), m1)
        a2 = GenAlgAllocator().allocate(Request(size=13, job_id=1), m2)
        assert a1.nodes.tolist() == a2.nodes.tolist()

    def test_approximation_guarantee(self):
        """Gen-Alg is a (2 - 2/k)-approximation for total pairwise distance.

        Brute-force the optimum on small instances and check the ratio.
        """
        mesh = Mesh(4, 4)
        rng = np.random.default_rng(7)
        for trial in range(10):
            machine = Machine(mesh)
            busy = rng.choice(16, size=6, replace=False)
            machine.allocate(busy, job_id=9)
            free = machine.free_nodes()
            k = 4
            a = GenAlgAllocator().allocate(Request(size=k, job_id=1), machine)
            got = total_pairwise_hops(mesh, a.nodes)
            best = min(
                total_pairwise_hops(mesh, np.array(combo))
                for combo in itertools.combinations(free.tolist(), k)
            )
            assert got <= (2 - 2 / k) * best + 1e-9

    @given(
        k=st.integers(1, 20),
        n_busy=st.integers(0, 40),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_allocation(self, k, n_busy, seed):
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        rng = np.random.default_rng(seed)
        busy = rng.choice(64, size=n_busy, replace=False)
        machine.allocate(busy, job_id=9)
        a = GenAlgAllocator().allocate(Request(size=k, job_id=1), machine)
        if machine.n_free < k:
            assert a is None
        else:
            assert a is not None
            assert len(set(a.nodes.tolist())) == k
            assert all(machine.is_free(int(n)) for n in a.nodes)
