"""Topology-protocol invariants, uniform across meshes and Clos fabrics.

Every machine the simulator can carry -- 2-D/3-D meshes and tori
(including the degenerate 1-wide and 2-wide torus axes) and the three
switched fabrics -- must satisfy the same graph laws: symmetric
adjacency, duplicate-free neighbor lists, routes that start/end at their
endpoints and walk only links, and a distance that is a true metric
(symmetric, zero-diagonal, triangle inequality) equal to the route
length.  The allocator/network layers rely on exactly these properties,
so a new topology that passes this module is safe to plug in.  Routes and
fabric distances are also pinned, over every host pair, to the scalar
reference in ``oracles.routing``, and every topology shares one host-id
range check.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import routing as oracle

from repro.core.metrics import total_pairwise_hops
from repro.mesh.clos import Dragonfly, FatTree, LeafSpine
from repro.mesh.topology import Mesh, Topology

TOPOLOGIES = {
    "mesh-4x5": lambda: Mesh(4, 5),
    "torus-4x5": lambda: Mesh(4, 5, torus=True),
    "torus-2x5": lambda: Mesh(2, 5, torus=True),  # 2-wide axis
    "torus-1x7": lambda: Mesh(1, 7, torus=True),  # 1-wide axis
    "mesh3d-3x2x2": lambda: Mesh(3, 2, 2),
    "torus3d-3x2x4": lambda: Mesh(3, 2, 4, torus=True),
    "fattree-4": lambda: FatTree(4),
    "leafspine-6x3": lambda: LeafSpine(6, 3),
    "leafspine-4x2-oversub": lambda: LeafSpine(4, 2, oversubscription=2.0),
    "dragonfly-5x3x2": lambda: Dragonfly(5, 3, 2),
}


@pytest.fixture(params=sorted(TOPOLOGIES), ids=sorted(TOPOLOGIES))
def topo(request):
    return TOPOLOGIES[request.param]()


def _vertices(topo) -> range:
    """All graph vertices: hosts, plus switches on the Clos fabrics."""
    return range(int(getattr(topo, "n_vertices", topo.n_nodes)))


def _host_pairs(topo, limit: int = 200) -> list[tuple[int, int]]:
    """A deterministic sample of ordered host pairs (all, when few)."""
    n = topo.n_nodes
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if len(pairs) <= limit:
        return pairs
    step = len(pairs) // limit
    return pairs[::step]


class TestProtocolSurface:
    def test_satisfies_protocol(self, topo):
        assert isinstance(topo, Topology)

    def test_all_nodes_dense(self, topo):
        assert np.array_equal(topo.all_nodes(), np.arange(topo.n_nodes))


class TestAdjacency:
    def test_symmetric(self, topo):
        for u in _vertices(topo):
            for v in topo.neighbors(u):
                assert u in topo.neighbors(v), f"{u}->{v} but not {v}->{u}"

    def test_no_duplicates_and_no_self_loops(self, topo):
        for u in _vertices(topo):
            out = topo.neighbors(u)
            assert len(out) == len(set(out)), f"duplicate neighbors of {u}: {out}"
            assert u not in out


class TestRoutes:
    def test_endpoints_contiguity_and_length(self, topo):
        for src, dst in _host_pairs(topo):
            path = topo.route(src, dst)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert b in topo.neighbors(a), (
                    f"route {src}->{dst} jumps a non-link {a}->{b}: {path}"
                )
            assert len(path) - 1 == topo.distance(src, dst)

    def test_self_route_is_trivial(self, topo):
        assert topo.route(3 % topo.n_nodes, 3 % topo.n_nodes) == [3 % topo.n_nodes]

    def test_every_host_pair_matches_oracle(self, topo):
        n = topo.n_nodes
        for src in range(n):
            for dst in range(n):
                assert topo.route(src, dst) == oracle.route_path(topo, src, dst)


class TestDistanceMetric:
    def test_pairwise_matrix_is_a_metric(self, topo):
        nodes = np.arange(topo.n_nodes)
        dist = np.asarray(topo.pairwise_distance(nodes))
        assert dist.shape == (topo.n_nodes, topo.n_nodes)
        assert np.array_equal(dist, dist.T), "distance not symmetric"
        assert np.all(np.diag(dist) == 0)
        assert np.all(dist[~np.eye(len(nodes), dtype=bool)] > 0)
        for k in range(len(nodes)):
            assert np.all(dist <= dist[:, [k]] + dist[[k], :]), (
                f"triangle inequality fails through node {k}"
            )

    def test_scalar_matches_matrix(self, topo):
        dist = np.asarray(topo.pairwise_distance(np.arange(topo.n_nodes)))
        for a, b in _host_pairs(topo, limit=50):
            assert topo.distance(a, b) == dist[a, b]


class TestFabricDistancesMatchOracle:
    """The template-derived distances equal the fabrics' closed forms."""

    @pytest.fixture(params=[n for n in sorted(TOPOLOGIES) if "mesh" not in n
                            and "torus" not in n])
    def fabric(self, request):
        return TOPOLOGIES[request.param]()

    def test_pairwise_distance(self, fabric):
        nodes = np.arange(fabric.n_nodes)
        dist = fabric.pairwise_distance(nodes)
        expected = oracle.host_distance(fabric, nodes[:, None], nodes[None, :])
        assert dist.dtype == np.int64
        assert np.array_equal(dist, expected)

    def test_total_pairwise_hops(self, fabric):
        rng = np.random.default_rng(5)
        for k in (0, 1, 2, 5, fabric.n_nodes):
            nodes = rng.permutation(fabric.n_nodes)[:k]
            assert total_pairwise_hops(fabric, nodes) == (
                oracle.total_pairwise_distance(fabric, nodes)
            )


class TestIdRange:
    """One host-id range check guards meshes and fabrics alike."""

    def test_empty_ids(self, topo):
        assert topo.pairwise_distance([]).shape == (0, 0)
        assert np.asarray(topo.distance([], [])).shape == (0,)

    @pytest.mark.parametrize("which", ["low", "high"])
    def test_out_of_range_ids_raise(self, topo, which):
        bad = -1 if which == "low" else topo.n_nodes
        with pytest.raises(ValueError, match="out of range"):
            topo.distance(bad, 0)
        with pytest.raises(ValueError, match="out of range"):
            topo.distance([0, 1], [0, bad])
        with pytest.raises(ValueError, match="out of range"):
            topo.pairwise_distance([0, bad])
        with pytest.raises(ValueError, match="out of range"):
            topo.route(0, bad)


class TestMeshRegressions:
    """The two mesh bugs this suite was introduced alongside."""

    def test_two_wide_torus_axis_deduped(self):
        # On a 2-wide torus axis, +1 and -1 reach the same node; the
        # neighbor must appear once, preserving scan order.
        assert Mesh(2, 5, torus=True).neighbors(0) == [1, 2, 8]
        mesh3 = Mesh(2, 2, 3, torus=True)
        for node in range(mesh3.n_nodes):
            out = mesh3.neighbors(node)
            assert len(out) == len(set(out))

    def test_one_wide_torus_axis_has_no_self_loop(self):
        mesh = Mesh(1, 7, torus=True)
        for node in range(mesh.n_nodes):
            assert node not in mesh.neighbors(node)
            assert len(mesh.neighbors(node)) == 2

    @pytest.mark.parametrize("bad", [-1, -5])
    def test_negative_ids_raise_not_wrap(self, bad):
        mesh = Mesh(4, 5)
        with pytest.raises(ValueError, match="out of range"):
            mesh.manhattan(bad, 0)
        with pytest.raises(ValueError, match="out of range"):
            mesh.chebyshev(0, bad)
        with pytest.raises(ValueError, match="out of range"):
            mesh.pairwise_manhattan([0, bad, 3])
        with pytest.raises(ValueError, match="out of range"):
            Mesh(3, 2, 2).pairwise_manhattan([bad])

    def test_oversized_ids_raise(self):
        mesh = Mesh(4, 5)
        with pytest.raises(ValueError, match="out of range"):
            mesh.manhattan(0, mesh.n_nodes)
        with pytest.raises(ValueError, match="out of range"):
            mesh.pairwise_manhattan([0, mesh.n_nodes])
