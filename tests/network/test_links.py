"""Tests for repro.network.links: link ids and vectorised accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import Mesh
from repro.network.links import LinkSpace


class TestLinkIds:
    def test_count(self):
        mesh = Mesh(16, 22)
        space = LinkSpace(mesh)
        # mesh edges: 15*22 horizontal + 16*21 vertical, two directions each
        assert space.n_links == 2 * (15 * 22 + 16 * 21)

    def test_torus_count(self):
        mesh = Mesh(4, 4, torus=True)
        assert LinkSpace(mesh).n_links == 2 * (16 + 16)

    def test_endpoints_roundtrip(self):
        mesh = Mesh(5, 4)
        space = LinkSpace(mesh)
        for link in range(space.n_links):
            u, v = space.endpoints(link)
            assert mesh.are_adjacent(u, v)

    def test_all_directed_edges_covered(self):
        mesh = Mesh(4, 5)
        space = LinkSpace(mesh)
        seen = {space.endpoints(link) for link in range(space.n_links)}
        assert len(seen) == space.n_links
        for node in range(mesh.n_nodes):
            for nbr in mesh.neighbors(node):
                assert (node, nbr) in seen

    def test_directional_helpers(self):
        mesh = Mesh(4, 4)
        space = LinkSpace(mesh)
        assert space.endpoints(space.east(1, 2)) == (
            mesh.node_id(1, 2),
            mesh.node_id(2, 2),
        )
        assert space.endpoints(space.west(1, 2)) == (
            mesh.node_id(2, 2),
            mesh.node_id(1, 2),
        )
        assert space.endpoints(space.north(1, 2)) == (
            mesh.node_id(1, 2),
            mesh.node_id(1, 3),
        )
        assert space.endpoints(space.south(1, 2)) == (
            mesh.node_id(1, 3),
            mesh.node_id(1, 2),
        )

    def test_out_of_range(self):
        space = LinkSpace(Mesh(3, 3))
        with pytest.raises(ValueError):
            space.endpoints(space.n_links)

    def test_cache(self):
        mesh = Mesh(6, 6)
        assert LinkSpace.for_mesh(mesh) is LinkSpace.for_mesh(Mesh(6, 6))


class TestLinksOnRoute:
    def test_matches_hop_count(self):
        mesh = Mesh(7, 6)
        space = LinkSpace(mesh)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
            assert len(space.links_on_route(a, b)) == mesh.manhattan(a, b)

    def test_x_first(self):
        mesh = Mesh(4, 4)
        space = LinkSpace(mesh)
        links = space.links_on_route(mesh.node_id(0, 0), mesh.node_id(2, 2))
        assert links[0] == space.east(0, 0)
        assert links[1] == space.east(1, 0)
        assert links[2] == space.north(2, 0)
        assert links[3] == space.north(2, 1)


class TestAccumulateLoads:
    def _reference(self, mesh, src, dst, weight):
        """Walk each route explicitly (the slow oracle)."""
        space = LinkSpace.for_mesh(mesh)
        loads = np.zeros(space.n_links)
        for s, d, w in zip(src, dst, weight):
            for link in space.links_on_route(int(s), int(d)):
                loads[link] += w
        return loads

    @given(
        w=st.integers(2, 9),
        h=st.integers(2, 9),
        n=st.integers(1, 60),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_walking_oracle(self, w, h, n, seed):
        mesh = Mesh(w, h)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(seed)
        src = rng.integers(0, mesh.n_nodes, n)
        dst = rng.integers(0, mesh.n_nodes, n)
        weight = rng.random(n)
        got = space.accumulate_route_loads(src, dst, weight)
        expected = self._reference(mesh, src, dst, weight)
        assert np.allclose(got, expected)

    def test_scalar_weight(self):
        mesh = Mesh(5, 5)
        space = LinkSpace.for_mesh(mesh)
        src = np.array([0, 0])
        dst = np.array([4, 24])
        got = space.accumulate_route_loads(src, dst, 2.0)
        expected = self._reference(mesh, src, dst, [2.0, 2.0])
        assert np.allclose(got, expected)

    @pytest.mark.parametrize("torus", [False, True])
    def test_2d_batch_with_row_weight(self, torus):
        mesh = Mesh(5, 4, torus=torus)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(3)
        src = rng.integers(0, mesh.n_nodes, (3, 4))
        dst = rng.integers(0, mesh.n_nodes, (3, 4))
        row = np.array([1.0, 2.0, 0.5, 3.0])
        full = np.broadcast_to(row, src.shape)
        expected = self._reference(mesh, src.ravel(), dst.ravel(), full.ravel())
        for weight in (full.copy(), row):
            got = space.accumulate_route_loads(src, dst, weight)
            assert np.allclose(got, expected)
        loads, hops = space.route_tally(src, dst, full.copy())
        assert np.allclose(loads, expected)
        assert hops == pytest.approx(expected.sum())

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.bool_])
    def test_integer_and_bool_weights(self, dtype):
        mesh = Mesh(6, 5, torus=True)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(8)
        src = rng.integers(0, mesh.n_nodes, 40)
        dst = rng.integers(0, mesh.n_nodes, 40)
        weight = rng.integers(0, 2, 40).astype(dtype)
        expected = self._reference(mesh, src, dst, weight.astype(float))
        loads, hops = space.route_tally(src, dst, weight)
        assert np.array_equal(loads, expected)
        assert type(hops) is int and hops == expected.sum()

    def test_self_messages_contribute_nothing(self):
        mesh = Mesh(4, 4)
        space = LinkSpace.for_mesh(mesh)
        got = space.accumulate_route_loads(np.array([3]), np.array([3]))
        assert np.all(got == 0)

    def test_total_equals_total_hops(self):
        mesh = Mesh(6, 7)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(5)
        src = rng.integers(0, mesh.n_nodes, 100)
        dst = rng.integers(0, mesh.n_nodes, 100)
        loads = space.accumulate_route_loads(src, dst)
        assert loads.sum() == pytest.approx(mesh.manhattan(src, dst).sum())

    def test_shape_mismatch(self):
        space = LinkSpace.for_mesh(Mesh(4, 4))
        with pytest.raises(ValueError):
            space.accumulate_route_loads(np.array([1, 2]), np.array([3]))

    def test_torus_wraparound_single_link(self):
        mesh = Mesh(4, 4, torus=True)
        space = LinkSpace.for_mesh(mesh)
        src = np.array([mesh.node_id(0, 0)])
        dst = np.array([mesh.node_id(3, 0)])
        loads = space.accumulate_route_loads(src, dst)
        assert loads.sum() == 1  # wraps: one link

    @given(
        w=st.integers(2, 6),
        h=st.integers(2, 6),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_2d_torus_matches_walking_oracle(self, w, h, n, seed):
        """The vectorised torus path must agree with explicit route walks."""
        mesh = Mesh(w, h, torus=True)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(seed)
        src = rng.integers(0, mesh.n_nodes, n)
        dst = rng.integers(0, mesh.n_nodes, n)
        weight = rng.random(n)
        got = space.accumulate_route_loads(src, dst, weight)
        expected = self._reference(mesh, src, dst, weight)
        assert np.allclose(got, expected)


class TestLinkSpace3D:
    def _reference(self, mesh, src, dst, weight):
        space = LinkSpace.for_mesh(mesh)
        loads = np.zeros(space.n_links)
        for s, d, w in zip(src, dst, weight):
            for link in space.links_on_route(int(s), int(d)):
                loads[link] += w
        return loads

    def test_counts(self):
        # Plain mesh: (w-1)hd + w(h-1)d + wh(d-1) channels, two directions.
        assert LinkSpace(Mesh(4, 3, 2)).n_links == 2 * (3*3*2 + 4*2*2 + 4*3*1)
        # Torus: every axis has as many channels as nodes.
        assert LinkSpace(Mesh(4, 4, 4, torus=True)).n_links == 6 * 64

    @pytest.mark.parametrize("torus", [False, True])
    def test_endpoints_roundtrip_and_cover(self, torus):
        # Extents >= 3: on an extent-2 torus axis the forward and wraparound
        # channels coincide physically, so distinct link ids share endpoints
        # (routing still uses one of them consistently -- ties go positive).
        mesh = Mesh(3, 4, 5, torus=torus)
        space = LinkSpace(mesh)
        seen = {space.endpoints(link) for link in range(space.n_links)}
        assert len(seen) == space.n_links
        for node in range(mesh.n_nodes):
            for nbr in mesh.neighbors(node):
                assert (node, nbr) in seen

    @given(
        dims=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
        torus=st.booleans(),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_walking_oracle(self, dims, torus, n, seed):
        mesh = Mesh(*dims, torus=torus)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(seed)
        src = rng.integers(0, mesh.n_nodes, n)
        dst = rng.integers(0, mesh.n_nodes, n)
        weight = rng.random(n)
        got = space.accumulate_route_loads(src, dst, weight)
        expected = self._reference(mesh, src, dst, weight)
        assert np.allclose(got, expected)

    def test_total_equals_total_hops(self):
        mesh = Mesh(5, 4, 6, torus=True)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(11)
        src = rng.integers(0, mesh.n_nodes, 200)
        dst = rng.integers(0, mesh.n_nodes, 200)
        loads = space.accumulate_route_loads(src, dst)
        assert loads.sum() == pytest.approx(mesh.manhattan(src, dst).sum())
