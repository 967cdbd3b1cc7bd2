"""Tests for repro.mesh.routing (dimension-ordered routing, 2-D and 3-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.routing import route_hop_count, route_links, route_path
from repro.mesh.topology import Mesh
from repro.network.links import LinkSpace


class TestRoutePath:
    def test_self_message(self):
        mesh = Mesh(4, 4)
        assert route_path(mesh, 5, 5) == [5]

    def test_horizontal(self):
        mesh = Mesh(4, 4)
        path = route_path(mesh, mesh.node_id(0, 1), mesh.node_id(3, 1))
        assert path == [mesh.node_id(x, 1) for x in range(4)]

    def test_vertical(self):
        mesh = Mesh(4, 4)
        path = route_path(mesh, mesh.node_id(2, 0), mesh.node_id(2, 3))
        assert path == [mesh.node_id(2, y) for y in range(4)]

    def test_x_before_y(self):
        mesh = Mesh(4, 4)
        path = route_path(mesh, mesh.node_id(0, 0), mesh.node_id(2, 2))
        coords = [mesh.coords(n) for n in path]
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_negative_directions(self):
        mesh = Mesh(4, 4)
        path = route_path(mesh, mesh.node_id(3, 3), mesh.node_id(1, 1))
        coords = [mesh.coords(n) for n in path]
        assert coords == [(3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]

    def test_length_is_hops_plus_one(self):
        mesh = Mesh(6, 7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = route_path(mesh, int(a), int(b))
            assert len(path) == mesh.manhattan(int(a), int(b)) + 1

    def test_consecutive_steps_adjacent(self):
        mesh = Mesh(5, 9)
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = route_path(mesh, int(a), int(b))
            for u, v in zip(path, path[1:]):
                assert mesh.are_adjacent(u, v)

    def test_torus_takes_short_way(self):
        mesh = Mesh(8, 8, torus=True)
        path = route_path(mesh, mesh.node_id(0, 0), mesh.node_id(7, 0))
        assert len(path) == 2  # wraps instead of walking across

    def test_hop_count_matches_manhattan(self):
        mesh = Mesh(5, 5)
        assert route_hop_count(mesh, 0, 24) == mesh.manhattan(0, 24)


class TestRouteLinks:
    def test_link_count_equals_hops(self):
        mesh = Mesh(6, 6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            links = route_links(mesh, int(a), int(b))
            assert len(links) == mesh.manhattan(int(a), int(b))

    def test_links_connect_path(self):
        mesh = Mesh(6, 6)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rng.integers(0, mesh.n_nodes, 2)
            path = route_path(mesh, int(a), int(b))
            links = route_links(mesh, int(a), int(b))
            for (u, v), link in zip(zip(path, path[1:]), links):
                assert space.endpoints(link) == (u, v)

    def test_self_message_no_links(self):
        mesh = Mesh(4, 4)
        assert route_links(mesh, 7, 7) == []

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
        path = route_path(mesh, a, b)
        coords = [mesh.coords(n) for n in path]
        ys = [c[1] for c in coords]
        sy = coords[0][1]
        # y never changes until x has reached its final value
        dx = mesh.manhattan(a, mesh.node_id(coords[-1][0], sy))
        assert all(y == sy for y in ys[: dx + 1])


class TestRoutePath3D:
    def test_self_message(self):
        mesh = Mesh(4, 4, 4)
        assert route_path(mesh, 21, 21) == [21]

    def test_x_then_y_then_z(self):
        mesh = Mesh(4, 4, 4)
        path = route_path(mesh, mesh.node_id(0, 0, 0), mesh.node_id(2, 1, 1))
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
                path = route_path(mesh, a, b)
                assert len(path) == mesh.manhattan(a, b) + 1
                for u, v in zip(path, path[1:]):
                    assert mesh.manhattan(u, v) == 1

    def test_torus_wrap_shorter_than_direct(self):
        mesh = Mesh(8, 8, 8, torus=True)
        src = mesh.node_id(0, 0, 1)
        dst = mesh.node_id(7, 0, 1)
        path = route_path(mesh, src, dst)
        assert path == [src, dst]  # 1 wrap hop, not 7 direct hops
        # And in z, where wraparound crosses the z = 0 face:
        path = route_path(mesh, mesh.node_id(3, 3, 1), mesh.node_id(3, 3, 6))
        zs = [mesh.coords(n)[2] for n in path]
        assert zs == [1, 0, 7, 6]

    def test_no_wrap_on_plain_3d_mesh(self):
        mesh = Mesh(8, 8, 8)
        path = route_path(mesh, mesh.node_id(0, 0, 0), mesh.node_id(7, 0, 0))
        assert len(path) == 8  # walks straight across, no wraparound


class TestRouteLinks3D:
    @pytest.mark.parametrize("torus", [False, True])
    def test_link_count_equals_hops(self, torus):
        mesh = Mesh(4, 4, 4, torus=torus)
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
            links = route_links(mesh, int(a), int(b))
            assert len(links) == mesh.manhattan(a, b)

    @pytest.mark.parametrize("torus", [False, True])
    def test_links_connect_path(self, torus):
        mesh = Mesh(4, 3, 5, torus=torus)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(9)
        for _ in range(30):
            a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
            path = route_path(mesh, a, b)
            links = route_links(mesh, a, b)
            assert len(links) == len(path) - 1
            for (u, v), link in zip(zip(path, path[1:]), links):
                assert space.endpoints(link) == (u, v)

    def test_wrap_leg_uses_wraparound_link(self):
        mesh = Mesh(4, 4, 4, torus=True)
        space = LinkSpace.for_mesh(mesh)
        links = route_links(mesh, mesh.node_id(0, 2, 2), mesh.node_id(3, 2, 2))
        assert len(links) == 1
        # The single link is the negative-x wraparound channel 0 -> 3.
        assert space.endpoints(links[0]) == (
            mesh.node_id(0, 2, 2),
            mesh.node_id(3, 2, 2),
        )
