"""Tests for repro.network.traffic."""

import numpy as np
import pytest

from repro.mesh.topology import Mesh
from repro.network.links import LinkSpace
from repro.network.traffic import (
    build_load_vector,
    mean_message_hops,
    pairs_to_nodes,
)
from repro.patterns import AllToAll, NBody, Ring


class TestPairsToNodes:
    def test_mapping(self):
        nodes = np.array([10, 20, 30])
        pairs = np.array([[0, 1], [2, 0]])
        src, dst = pairs_to_nodes(nodes, pairs)
        assert src.tolist() == [10, 30]
        assert dst.tolist() == [20, 10]

    def test_empty(self):
        src, dst = pairs_to_nodes(np.array([1, 2]), np.empty((0, 2)))
        assert len(src) == 0 and len(dst) == 0

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            pairs_to_nodes(np.array([1, 2]), np.array([[0, 5]]))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            pairs_to_nodes(np.array([1, 2]), np.array([[0, 1, 1]]))


class TestLoadVector:
    def test_empty_cycle_zero_vector(self, mesh8):
        loads = build_load_vector(mesh8, np.array([5]), np.empty((0, 2)))
        assert np.all(loads == 0)

    def test_normalised_per_message(self, mesh8):
        """Sum of loads = mean hops * flits (per-message normalisation)."""
        nodes = np.array([0, 1, 2, 3])
        pairs = AllToAll().cycle(4)
        flits = 16.0
        loads = build_load_vector(mesh8, nodes, pairs, message_flits=flits)
        assert loads.sum() == pytest.approx(
            mean_message_hops(mesh8, nodes, pairs) * flits
        )

    def test_ring_on_a_row(self, mesh8):
        """Ring over a contiguous row: each eastward link carries 1/p."""
        nodes = np.array([mesh8.node_id(x, 0) for x in range(4)])
        pairs = Ring().cycle(4)
        loads = build_load_vector(mesh8, nodes, pairs, message_flits=1.0)
        space = LinkSpace.for_mesh(mesh8)
        # 3 eastward hops of 1 + 1 westward return of 3 hops = 6 hops / 4 msgs
        assert loads.sum() == pytest.approx(6 / 4)
        assert loads[space.east(0, 0)] == pytest.approx(1 / 4)
        assert loads[space.west(0, 0)] == pytest.approx(1 / 4)


class TestMessageHops:
    def test_mean_is_average_route_distance(self, mesh8):
        nodes = np.array([0, 9, 18, 27])
        pairs = NBody().cycle(4)
        mean = mean_message_hops(mesh8, nodes, pairs)
        total = sum(mesh8.distance(int(nodes[s]), int(nodes[d])) for s, d in pairs)
        assert mean == pytest.approx(total / len(pairs))

    def test_empty(self, mesh8):
        assert mean_message_hops(mesh8, np.array([3]), np.empty((0, 2))) == 0.0

    def test_compact_beats_dispersed(self, mesh16):
        """The core premise: dispersal raises message distance."""
        pairs = AllToAll().cycle(16)
        compact = np.array(
            [mesh16.node_id(x, y) for x in range(4) for y in range(4)]
        )
        dispersed = np.array(
            [mesh16.node_id(4 * (i % 4), 4 * (i // 4)) for i in range(16)]
        )
        assert mean_message_hops(mesh16, compact, pairs) < mean_message_hops(
            mesh16, dispersed, pairs
        )
