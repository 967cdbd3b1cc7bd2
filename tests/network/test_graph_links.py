"""GraphLinkSpace: the switched-fabric side of the link accounting.

Pins three things: the vectorised ``route_tally`` (masked fixed hop
templates + ``np.add.at``) agrees exactly with the per-message scalar
routes of ``oracles.routing`` on every fabric, ``link_space_for``
dispatches meshes to their cached vectorised ``LinkSpace`` (the fast
path the benchmarks guard), and the fluid network runs unchanged on a
Clos machine.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import routing as oracle

from repro.mesh.clos import Dragonfly, FatTree, LeafSpine
from repro.mesh.topology import Mesh
from repro.network.links import GraphLinkSpace, LinkSpace, link_space_for

FABRICS = {
    "fattree-4": lambda: FatTree(4),
    "leafspine-6x3": lambda: LeafSpine(6, 3),
    "dragonfly-5x3x2": lambda: Dragonfly(5, 3, 2),
}


@pytest.fixture(params=sorted(FABRICS), ids=sorted(FABRICS))
def fabric(request):
    return FABRICS[request.param]()


class TestGraphLinkSpace:
    def test_links_are_paired_and_invertible(self, fabric):
        space = fabric.link_space()
        assert space.n_links % 2 == 0  # full duplex: directed pairs
        for link in range(space.n_links):
            u, v = space.endpoints(link)
            assert space.link_id(u, v) == link
            assert space.endpoints(space.link_id(v, u)) == (v, u)

    def test_route_links_connect_endpoint_to_endpoint(self, fabric):
        space = fabric.link_space()
        for src, dst in [(0, 1), (0, fabric.n_nodes - 1), (3, 2)]:
            ids = space.links_on_route(src, dst)
            hops = [space.endpoints(l) for l in ids]
            assert hops[0][0] == src and hops[-1][1] == dst
            for (_, a), (b, _) in zip(hops, hops[1:]):
                assert a == b

    def test_accumulate_matches_per_message_reference(self, fabric):
        space = fabric.link_space()
        rng = np.random.default_rng(7)
        src = rng.integers(0, fabric.n_nodes, size=120)
        dst = rng.integers(0, fabric.n_nodes, size=120)
        weight = rng.random(120)
        loads = space.accumulate_route_loads(src, dst, weight)
        expected = np.zeros(space.n_links)
        for s, d, w in zip(src, dst, weight):
            for link in oracle.route_links(fabric, int(s), int(d)):
                expected[link] += w
        np.testing.assert_allclose(loads, expected)

    def test_route_tally_hops_match_oracle(self, fabric):
        space = fabric.link_space()
        rng = np.random.default_rng(8)
        src = rng.integers(0, fabric.n_nodes, size=120)
        dst = rng.integers(0, fabric.n_nodes, size=120)
        counts = rng.integers(1, 4, size=120)
        _, hops = space.route_tally(src, dst, counts)
        assert isinstance(hops, int)
        assert hops == sum(
            int(c) * oracle.route_hop_count(fabric, int(s), int(d))
            for s, d, c in zip(src, dst, counts)
        )

    def test_links_on_route_match_oracle(self, fabric):
        space = fabric.link_space()
        for src in range(fabric.n_nodes):
            for dst in range(fabric.n_nodes):
                assert space.links_on_route(src, dst) == oracle.route_links(
                    fabric, src, dst
                )

    def test_cached_per_topology(self, fabric):
        assert fabric.link_space() is fabric.link_space()
        assert link_space_for(fabric) is fabric.link_space()

    def test_rejects_vertex_out_of_range(self, fabric):
        space = fabric.link_space()
        with pytest.raises(ValueError, match="out of range"):
            space.link_id(-1, 0)
        with pytest.raises(ValueError, match="out of range"):
            space.endpoints(space.n_links)

    def test_rejects_non_adjacent_pair(self, fabric):
        # Two hosts are never directly linked on a switched fabric.
        with pytest.raises(ValueError, match="no link"):
            fabric.link_space().link_id(0, 1)

    def test_rejects_asymmetric_adjacency(self):
        class OneWay:
            n_vertices = 2

            def neighbors(self, node):
                return [1] if node == 0 else []

        with pytest.raises(ValueError, match="asymmetric"):
            GraphLinkSpace(OneWay())


class TestMeshFastPath:
    @pytest.mark.parametrize(
        "mesh", [Mesh(8, 8), Mesh(4, 5, torus=True), Mesh(3, 3, 3)]
    )
    def test_meshes_keep_the_cached_vectorised_space(self, mesh):
        space = link_space_for(mesh)
        assert isinstance(space, LinkSpace)
        assert space is LinkSpace.for_mesh(mesh)
        assert space is link_space_for(mesh)


class TestFluidOnClos:
    def test_fluid_network_runs_on_a_fat_tree(self):
        from repro.network.fluid import FluidNetwork, NetworkParams
        from repro.network.traffic import build_load_vector, mean_message_hops

        ft = FatTree(4)
        net = FluidNetwork(ft, NetworkParams())
        pairs = [(0, 1), (1, 0)]  # rank ring of a 2-process job
        nodes_a = np.array([0, 1])  # same edge switch: 2 hops
        nodes_b = np.array([2, 5])  # across pods: 6 hops
        net.add_flow(
            1,
            build_load_vector(ft, nodes_a, pairs, net.params.message_flits),
            mean_message_hops(ft, nodes_a, pairs),
        )
        net.add_flow(
            2,
            build_load_vector(ft, nodes_b, pairs, net.params.message_flits),
            mean_message_hops(ft, nodes_b, pairs),
        )
        rates = dict(zip(net.flow_ids(), net.rates_vector()))
        assert set(rates) == {1, 2}
        assert all(r > 0 for r in rates.values())
        # The intra-edge flow travels 2 hops; the cross-pod flow 6.
        assert mean_message_hops(ft, nodes_a, pairs) == 2.0
        assert mean_message_hops(ft, nodes_b, pairs) == 6.0
