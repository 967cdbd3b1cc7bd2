"""Tests for repro.core.metrics (Section 4.3 metrics)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import get_curve
from repro.core.metrics import (
    average_pairwise_hops,
    components,
    is_contiguous,
    n_components,
    total_pairwise_hops,
)
from repro.mesh.topology import Mesh


class TestPairwiseHops:
    def test_two_nodes(self, mesh8):
        assert total_pairwise_hops(mesh8, [0, 1]) == 1
        assert average_pairwise_hops(mesh8, [0, 1]) == 1.0

    def test_single_node(self, mesh8):
        assert total_pairwise_hops(mesh8, [5]) == 0
        assert average_pairwise_hops(mesh8, [5]) == 0.0

    def test_matches_bruteforce(self, mesh8):
        rng = np.random.default_rng(2)
        for _ in range(20):
            nodes = rng.choice(64, size=8, replace=False)
            brute = sum(
                mesh8.manhattan(int(a), int(b))
                for a, b in itertools.combinations(nodes.tolist(), 2)
            )
            assert total_pairwise_hops(mesh8, nodes) == brute
            assert average_pairwise_hops(mesh8, nodes) == pytest.approx(
                brute / (8 * 7 / 2)
            )

    def test_2x2_block(self, mesh8):
        nodes = [mesh8.node_id(x, y) for x in (3, 4) for y in (3, 4)]
        # pairs: 4 at distance 1 ... wait: (3,3)-(4,3)=1, (3,3)-(3,4)=1,
        # (3,3)-(4,4)=2, (4,3)-(3,4)=2, (4,3)-(4,4)=1, (3,4)-(4,4)=1 -> 8/6
        assert average_pairwise_hops(mesh8, nodes) == pytest.approx(8 / 6)

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_scale(self, seed, k):
        """Average pairwise distance is positive and bounded by the mesh
        diameter for any multi-node allocation."""
        mesh = Mesh(8, 8)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(64, size=k, replace=False)
        avg = average_pairwise_hops(mesh, nodes)
        assert 0 < avg <= 14  # diameter of 8x8


class TestComponents:
    def test_single_block(self, mesh8):
        nodes = [mesh8.node_id(x, y) for x in range(3) for y in range(3)]
        assert n_components(mesh8, nodes) == 1
        assert is_contiguous(mesh8, nodes)

    def test_two_islands(self, mesh8):
        nodes = [0, 1, mesh8.node_id(6, 6), mesh8.node_id(7, 6)]
        comps = components(mesh8, nodes)
        assert len(comps) == 2
        assert [0, 1] in comps

    def test_diagonal_not_connected(self, mesh8):
        """4-connectivity: diagonal neighbours are separate components."""
        nodes = [mesh8.node_id(0, 0), mesh8.node_id(1, 1)]
        assert n_components(mesh8, nodes) == 2

    def test_all_isolated(self, mesh8):
        nodes = [mesh8.node_id(x, y) for x in (0, 3, 6) for y in (0, 3, 6)]
        assert n_components(mesh8, nodes) == 9

    def test_snake_is_one_component(self, mesh8):
        curve = get_curve("s-curve", mesh8)
        assert is_contiguous(mesh8, curve.order[:20])

    def test_empty(self, mesh8):
        assert n_components(mesh8, []) == 0

    def test_duplicates_rejected(self, mesh8):
        with pytest.raises(ValueError):
            components(mesh8, [1, 1])

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_property_component_partition(self, seed, k):
        """Components partition the node set."""
        mesh = Mesh(8, 8)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(64, size=k, replace=False)
        comps = components(mesh, nodes)
        flat = sorted(v for comp in comps for v in comp)
        assert flat == sorted(nodes.tolist())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_curve_prefixes_gapfree_contiguous(self, seed):
        """Any prefix interval of a gap-free curve is one component."""
        mesh = Mesh(8, 8)
        curve = get_curve("hilbert", mesh)
        rng = np.random.default_rng(seed)
        lo = int(rng.integers(0, 60))
        hi = int(rng.integers(lo + 1, 65))
        assert is_contiguous(mesh, curve.order[lo:hi])
