"""Dimension-ordered routing on 2-D and 3-D meshes and tori.

A mesh declares its route once, as ``LinkSpace.links_on_route``;
``Mesh.route`` is its vertex view.  Both are checked here against the
independent scalar reference in ``oracles.routing`` (all host pairs on
small meshes and tori, every destination from a few sources on the 8x8x8
torus) and against the hand-worked paths below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import routing as oracle

from repro.mesh.topology import Mesh
from repro.network.links import LinkSpace


def _links(mesh, src, dst):
    return LinkSpace.for_mesh(mesh).links_on_route(src, dst)


ORACLE_MESHES = {
    "4x5": (Mesh(4, 5), None),
    "2x3t": (Mesh(2, 3, torus=True), None),
    "1x6t": (Mesh(1, 6, torus=True), None),
    "4x5t": (Mesh(4, 5, torus=True), None),
    "3x2x2": (Mesh(3, 2, 2), None),
    "2x2x2t": (Mesh(2, 2, 2, torus=True), None),
    "3x2x4t": (Mesh(3, 2, 4, torus=True), None),
    "8x8x8t": (Mesh(8, 8, 8, torus=True), (0, 73, 511)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_route_and_links_match_oracle(name):
    """Every host pair (every destination from a few sources on 8x8x8t)."""
    mesh, sources = ORACLE_MESHES[name]
    space = LinkSpace.for_mesh(mesh)
    for src in sources or range(mesh.n_nodes):
        for dst in range(mesh.n_nodes):
            assert mesh.route(src, dst) == oracle.route_path(mesh, src, dst)
            assert space.links_on_route(src, dst) == oracle.route_links(
                mesh, src, dst
            )


class TestRoutePath:
    def test_self_message(self):
        mesh = Mesh(4, 4)
        assert mesh.route(5, 5) == [5]

    def test_horizontal(self):
        mesh = Mesh(4, 4)
        path = mesh.route(mesh.node_id(0, 1), mesh.node_id(3, 1))
        assert path == [mesh.node_id(x, 1) for x in range(4)]

    def test_vertical(self):
        mesh = Mesh(4, 4)
        path = mesh.route(mesh.node_id(2, 0), mesh.node_id(2, 3))
        assert path == [mesh.node_id(2, y) for y in range(4)]

    def test_x_before_y(self):
        mesh = Mesh(4, 4)
        path = mesh.route(mesh.node_id(0, 0), mesh.node_id(2, 2))
        coords = [mesh.coords(n) for n in path]
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_negative_directions(self):
        mesh = Mesh(4, 4)
        path = mesh.route(mesh.node_id(3, 3), mesh.node_id(1, 1))
        coords = [mesh.coords(n) for n in path]
        assert coords == [(3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]

    def test_length_is_hops_plus_one(self):
        mesh = Mesh(6, 7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = mesh.route(int(a), int(b))
            assert len(path) == mesh.manhattan(int(a), int(b)) + 1

    def test_consecutive_steps_adjacent(self):
        mesh = Mesh(5, 9)
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = mesh.route(int(a), int(b))
            for u, v in zip(path, path[1:]):
                assert mesh.are_adjacent(u, v)

    def test_torus_takes_short_way(self):
        mesh = Mesh(8, 8, torus=True)
        path = mesh.route(mesh.node_id(0, 0), mesh.node_id(7, 0))
        assert len(path) == 2  # wraps instead of walking across

    def test_hop_count_matches_manhattan(self):
        mesh = Mesh(5, 5)
        assert len(mesh.route(0, 24)) - 1 == mesh.manhattan(0, 24)


class TestRouteLinks:
    def test_link_count_equals_hops(self):
        mesh = Mesh(6, 6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            links = _links(mesh, int(a), int(b))
            assert len(links) == mesh.manhattan(int(a), int(b))

    def test_links_connect_path(self):
        mesh = Mesh(6, 6)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = oracle.route_path(mesh, int(a), int(b))
            links = _links(mesh, int(a), int(b))
            assert len(links) == len(path) - 1
            for (u, v), link in zip(zip(path, path[1:]), links):
                assert space.endpoints(link) == (u, v)

    def test_self_message_no_links(self):
        mesh = Mesh(4, 4)
        assert _links(mesh, 7, 7) == []

    @given(
        w=st.integers(2, 10),
        h=st.integers(2, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_valid_route(self, w, h, seed):
        """Every route is a valid x-y walk: x moves first, then y."""
        mesh = Mesh(w, h)
        rng = np.random.default_rng(seed)
        a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
        path = mesh.route(a, b)
        coords = [mesh.coords(n) for n in path]
        ys = [c[1] for c in coords]
        sy = coords[0][1]
        # y never changes until x has reached its final value
        dx = mesh.manhattan(a, mesh.node_id(coords[-1][0], sy))
        assert all(y == sy for y in ys[: dx + 1])


class TestRoutePath3D:
    def test_self_message(self):
        mesh = Mesh(4, 4, 4)
        assert mesh.route(21, 21) == [21]

    def test_x_then_y_then_z(self):
        mesh = Mesh(4, 4, 4)
        path = mesh.route(mesh.node_id(0, 0, 0), mesh.node_id(2, 1, 1))
        coords = [mesh.coords(n) for n in path]
        assert coords == [
            (0, 0, 0), (1, 0, 0), (2, 0, 0),  # x leg first
            (2, 1, 0),                        # then y
            (2, 1, 1),                        # then z
        ]

    def test_length_is_hops_plus_one_mesh_and_torus(self):
        for torus in (False, True):
            mesh = Mesh(4, 5, 3, torus=torus)
            rng = np.random.default_rng(7)
            for _ in range(50):
                a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
                path = mesh.route(a, b)
                assert len(path) == mesh.manhattan(a, b) + 1
                for u, v in zip(path, path[1:]):
                    assert mesh.manhattan(u, v) == 1

    def test_torus_wrap_shorter_than_direct(self):
        mesh = Mesh(8, 8, 8, torus=True)
        src = mesh.node_id(0, 0, 1)
        dst = mesh.node_id(7, 0, 1)
        path = mesh.route(src, dst)
        assert path == [src, dst]  # 1 wrap hop, not 7 direct hops
        # And in z, where wraparound crosses the z = 0 face:
        path = mesh.route(mesh.node_id(3, 3, 1), mesh.node_id(3, 3, 6))
        zs = [mesh.coords(n)[2] for n in path]
        assert zs == [1, 0, 7, 6]

    def test_no_wrap_on_plain_3d_mesh(self):
        mesh = Mesh(8, 8, 8)
        path = mesh.route(mesh.node_id(0, 0, 0), mesh.node_id(7, 0, 0))
        assert len(path) == 8  # walks straight across, no wraparound


class TestRouteLinks3D:
    @pytest.mark.parametrize("torus", [False, True])
    def test_link_count_equals_hops(self, torus):
        mesh = Mesh(4, 4, 4, torus=torus)
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
            links = _links(mesh, int(a), int(b))
            assert len(links) == mesh.manhattan(a, b)

    @pytest.mark.parametrize("torus", [False, True])
    def test_links_connect_path(self, torus):
        mesh = Mesh(4, 3, 5, torus=torus)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(9)
        for _ in range(30):
            a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
            path = oracle.route_path(mesh, a, b)
            links = _links(mesh, a, b)
            assert len(links) == len(path) - 1
            for (u, v), link in zip(zip(path, path[1:]), links):
                assert space.endpoints(link) == (u, v)

    def test_wrap_leg_uses_wraparound_link(self):
        mesh = Mesh(4, 4, 4, torus=True)
        space = LinkSpace.for_mesh(mesh)
        links = _links(mesh, mesh.node_id(0, 2, 2), mesh.node_id(3, 2, 2))
        assert len(links) == 1
        # The single link is the negative-x wraparound channel 0 -> 3.
        assert space.endpoints(links[0]) == (
            mesh.node_id(0, 2, 2),
            mesh.node_id(3, 2, 2),
        )
