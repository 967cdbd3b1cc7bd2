"""Tests for repro.core.mc: MC / MC1x1 shell allocators (Fig 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.mc import mc_anchor_costs, mc_nodes

from repro.core.base import Request
from repro.core.mc import MCAllocator, infer_shape, shell_costs, shell_map
from repro.core.metrics import average_pairwise_hops, is_contiguous
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh


class TestInferShape:
    def test_perfect_squares(self):
        mesh = Mesh(16, 16)
        assert infer_shape(16, mesh) == (4, 4)
        assert infer_shape(9, mesh) == (3, 3)

    def test_rectangles(self):
        mesh = Mesh(16, 16)
        assert infer_shape(12, mesh) == (3, 4)  # 3x4 beats 2x6 and 1x12

    def test_primes_get_covering_rectangle(self):
        mesh = Mesh(16, 16)
        a, b = infer_shape(7, mesh)
        assert a * b >= 7
        # 2x4 = 8 slots: same perimeter as 3x3 but less waste; far from 1x7.
        assert (a, b) == (2, 4)

    def test_one(self):
        assert infer_shape(1, Mesh(4, 4)) == (1, 1)

    def test_respects_mesh_bounds(self):
        mesh = Mesh(4, 22)
        a, b = infer_shape(20, mesh)
        assert a <= 4 and b <= 22 and a * b >= 20

    def test_too_large(self):
        with pytest.raises(ValueError):
            infer_shape(17, Mesh(4, 4))

    def test_invalid(self):
        with pytest.raises(ValueError):
            infer_shape(0, Mesh(4, 4))

    @given(k=st.integers(1, 256))
    @settings(max_examples=100, deadline=None)
    def test_property_covers_and_fits(self, k):
        mesh = Mesh(16, 16)
        a, b = infer_shape(k, mesh)
        assert a * b >= k
        assert a <= 16 and b <= 16


class TestShellMap:
    def test_fig4_shape(self):
        """Fig 4: shells around a 3x1 request."""
        mesh = Mesh(9, 7)
        shells = shell_map(mesh, 3, 3, (3, 1)).reshape(7, 9)
        # shell 0: the 3x1 submesh itself
        assert shells[3, 3] == 0 and shells[3, 4] == 0 and shells[3, 5] == 0
        # first ring
        assert shells[2, 3] == 1 and shells[4, 5] == 1 and shells[3, 2] == 1
        assert shells[2, 2] == 1  # corner of ring 1
        # second ring
        assert shells[1, 3] == 2 and shells[3, 1] == 2 and shells[1, 1] == 2

    def test_1x1_shells_are_chebyshev(self):
        mesh = Mesh(8, 8)
        shells = shell_map(mesh, 4, 4, (1, 1))
        centre = mesh.node_id(4, 4)
        cheb = np.array([mesh.chebyshev(centre, v) for v in range(64)])
        assert np.array_equal(shells, cheb)

    def test_clipped_at_boundary(self):
        mesh = Mesh(5, 5)
        shells = shell_map(mesh, 0, 0, (2, 2)).reshape(5, 5)
        assert shells[0, 0] == 0
        assert shells[4, 4] == 3


class TestMC1x1:
    def test_empty_machine_compact(self, machine16, mesh16):
        a = MCAllocator(shaped=False).allocate(Request(size=9, job_id=1), machine16)
        assert len(a.nodes) == 9
        assert is_contiguous(mesh16, a.nodes)
        # 9 nearest by Chebyshev from a centre = a 3x3 block.
        xs, ys = mesh16.axis_coords(a.nodes)
        assert xs.max() - xs.min() == 2 and ys.max() - ys.min() == 2

    def test_single_node(self, machine16):
        a = MCAllocator(shaped=False).allocate(Request(size=1, job_id=1), machine16)
        assert len(a.nodes) == 1

    def test_returns_none_when_full(self, mesh8):
        machine = Machine(mesh8)
        machine.allocate(range(60), job_id=9)
        assert (
            MCAllocator(shaped=False).allocate(Request(size=5, job_id=1), machine)
            is None
        )

    def test_centre_is_free_processor(self, mesh8):
        """MC1x1 candidates are free processors, so rank 0 is free."""
        machine = Machine(mesh8)
        machine.allocate(range(0, 32), job_id=9)
        a = MCAllocator(shaped=False).allocate(Request(size=4, job_id=1), machine)
        assert all(int(n) >= 32 for n in a.nodes)

    def test_prefers_dense_free_region(self, mesh8):
        """Scattered singles vs. a compact free block: MC1x1 takes the block."""
        machine = Machine(mesh8)
        block = {mesh8.node_id(x, y) for x in (5, 6, 7) for y in (5, 6, 7)}
        scattered = {
            mesh8.node_id(0, 0),
            mesh8.node_id(0, 4),
            mesh8.node_id(4, 0),
            mesh8.node_id(0, 7),
            mesh8.node_id(3, 4),
        }
        busy = [n for n in range(64) if n not in block | scattered]
        machine.allocate(busy, job_id=9)
        a = MCAllocator(shaped=False).allocate(Request(size=8, job_id=1), machine)
        assert set(a.nodes.tolist()) <= block


class TestMCShaped:
    def test_uses_request_shape(self, machine16, mesh16):
        a = MCAllocator(shaped=True).allocate(
            Request(size=8, job_id=1, shape=(8, 1)), machine16
        )
        ys = mesh16.axis_coords(a.nodes)[1]
        assert ys.max() == ys.min()  # a 8x1 row

    def test_infers_shape(self, machine16, mesh16):
        a = MCAllocator(shaped=True).allocate(Request(size=16, job_id=1), machine16)
        xs, ys = mesh16.axis_coords(a.nodes)
        assert xs.max() - xs.min() == 3 and ys.max() - ys.min() == 3

    def test_free_submesh_costs_zero(self, mesh8):
        costs = MCAllocator.anchor_costs(Machine(mesh8), k=4, shape=(2, 2))
        assert costs[(0, 0)] == 0
        assert costs[(3, 3)] == 0

    def test_anchor_cost_counts_shells(self, mesh8):
        machine = Machine(mesh8)
        # Occupy the whole 2x2 submesh at (0,0): its 4 procs must come
        # from shell 1 (8 free neighbours there) -> cost 4.
        machine.allocate(
            [mesh8.node_id(x, y) for x in range(2) for y in range(2)], job_id=9
        )
        costs = MCAllocator.anchor_costs(machine, k=4, shape=(2, 2))
        assert costs[(0, 0)] == 4

    def test_rank_order_innermost_first(self, machine16, mesh16):
        a = MCAllocator(shaped=True).allocate(Request(size=10, job_id=1), machine16)
        # shells of chosen nodes w.r.t. the winning anchor are non-decreasing
        # (can't know the anchor here, but distance from allocation centroid
        # must be roughly non-decreasing; check first node is interior).
        sh = average_pairwise_hops(mesh16, a.nodes)
        assert sh < 3.0

    def test_mc_beats_mc1x1_on_elongated_holes(self):
        """Shaped search fits the requested rectangle when one exists."""
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        # Free: a 4x2 rectangle at top and scattered singles elsewhere.
        free = {mesh.node_id(x, y) for x in range(2, 6) for y in (6, 7)}
        free |= {mesh.node_id(0, 0), mesh.node_id(7, 0), mesh.node_id(0, 3)}
        busy = [n for n in range(64) if n not in free]
        machine.allocate(busy, job_id=9)
        a = MCAllocator(shaped=True).allocate(
            Request(size=8, job_id=1, shape=(4, 2)), machine
        )
        assert is_contiguous(mesh, a.nodes)
        ys = mesh.axis_coords(a.nodes)[1]
        assert ys.min() == 6

    def test_does_not_mutate_machine(self, machine8):
        before = machine8.snapshot()
        MCAllocator(shaped=True).allocate(Request(size=6, job_id=1), machine8)
        assert np.array_equal(machine8.snapshot(), before)

    @given(
        shaped=st.booleans(),
        k=st.integers(1, 30),
        n_busy=st.integers(0, 30),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_allocation(self, shaped, k, n_busy, seed):
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        rng = np.random.default_rng(seed)
        busy = rng.choice(64, size=n_busy, replace=False)
        machine.allocate(busy, job_id=9)
        a = MCAllocator(shaped=shaped).allocate(Request(size=k, job_id=1), machine)
        if machine.n_free < k:
            assert a is None
        else:
            assert a is not None and len(a.nodes) == k
            assert all(machine.is_free(int(n)) for n in a.nodes)
            assert len(set(a.nodes.tolist())) == k


@st.composite
def _fills(draw, max_side=12):
    """A mesh or torus of any aspect (``1 x n`` included), a random set of
    busy nodes leaving at least one free, and a size ``k`` that is often
    exactly 1 or every free node."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    mesh = Mesh(w, h, torus=draw(st.booleans()))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_busy = draw(st.integers(0, mesh.n_nodes - 1))
    machine = Machine(mesh)
    machine.allocate(rng.choice(mesh.n_nodes, n_busy, replace=False), job_id=9)
    n_free = machine.n_free
    k = draw(st.one_of(st.just(1), st.just(n_free), st.integers(1, n_free)))
    return machine, k


@st.composite
def _shapes(draw, mesh):
    """None (inferred), a shape spanning the width or the height, or any."""
    a = st.integers(1, mesh.width)
    b = st.integers(1, mesh.height)
    return draw(
        st.one_of(
            st.none(),
            st.tuples(st.just(mesh.width), b),
            st.tuples(a, st.just(mesh.height)),
            st.tuples(a, b),
        )
    )


class TestSummedAreaTableMatchesShellMatrix:
    """The summed-area-table scoring returns exactly the node arrays, order
    included, of the ``F x F`` shell-matrix form (``oracles.mc``)."""

    @given(fill=_fills(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mc_nodes(self, fill, data):
        machine, k = fill
        shape = data.draw(_shapes(machine.mesh))
        got = MCAllocator(shaped=True).allocate(
            Request(size=k, job_id=1, shape=shape), machine
        )
        assert np.array_equal(got.nodes, mc_nodes(machine, k, True, shape))

    @given(fill=_fills())
    @settings(max_examples=200, deadline=None)
    def test_mc1x1_nodes(self, fill):
        machine, k = fill
        got = MCAllocator(shaped=False).allocate(Request(size=k, job_id=1), machine)
        assert np.array_equal(got.nodes, mc_nodes(machine, k, False))

    @pytest.mark.parametrize(
        "width, height, torus",
        [(4, 13, False), (13, 4, False), (1, 17, False), (17, 1, False), (9, 6, True)],
    )
    @pytest.mark.parametrize("shaped", [True, False])
    def test_seeded_fills(self, width, height, torus, shaped):
        mesh = Mesh(width, height, torus=torus)
        rng = np.random.default_rng(width * 100 + height)
        for _ in range(40):
            machine = Machine(mesh)
            busy = rng.choice(mesh.n_nodes, rng.integers(0, mesh.n_nodes), replace=False)
            machine.allocate(busy, job_id=9)
            for k in {1, machine.n_free, int(rng.integers(1, machine.n_free + 1))}:
                got = MCAllocator(shaped=shaped).allocate(
                    Request(size=k, job_id=1), machine
                )
                assert np.array_equal(got.nodes, mc_nodes(machine, k, shaped))

    @given(fill=_fills(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_anchor_costs(self, fill, data):
        """Every anchor's cost is the oracle's ``np.partition`` sum, keyed
        in the same order."""
        machine, k = fill
        mesh = machine.mesh
        shape = data.draw(
            st.tuples(st.integers(1, mesh.width), st.integers(1, mesh.height))
        )
        got = MCAllocator.anchor_costs(machine, k, shape)
        expected = mc_anchor_costs(machine, k, shape)
        assert list(got.items()) == list(expected.items())

    def test_anchor_costs_rejects_short_machine(self, mesh8):
        machine = Machine(mesh8)
        machine.allocate(range(62), job_id=9)
        with pytest.raises(ValueError):
            MCAllocator.anchor_costs(machine, k=3, shape=(1, 1))

    def test_shell_costs_full_mesh_shape_is_free(self, mesh8):
        """An ``a == W, b == H`` submesh holds every free node in shell 0."""
        machine = Machine(mesh8)
        machine.allocate(range(0, 64, 3), job_id=9)
        zero = np.zeros(1, dtype=np.int64)
        assert shell_costs(machine, zero, zero, (8, 8), machine.n_free).tolist() == [0]
