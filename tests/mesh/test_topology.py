"""Tests for repro.mesh.topology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import Mesh, parse_mesh_string


class TestBasics2D:
    def test_n_nodes(self):
        assert Mesh(16, 22).n_nodes == 352
        assert Mesh(16, 16).n_nodes == 256
        assert Mesh(1, 1).n_nodes == 1

    def test_shape(self):
        assert Mesh(16, 22).shape == (16, 22)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 5)
        with pytest.raises(ValueError):
            Mesh(5, -1)

    def test_node_id_row_major(self):
        mesh = Mesh(4, 3)
        assert mesh.node_id(0, 0) == 0
        assert mesh.node_id(3, 0) == 3
        assert mesh.node_id(0, 1) == 4
        assert mesh.node_id(3, 2) == 11

    def test_node_id_out_of_range(self):
        mesh = Mesh(4, 3)
        with pytest.raises(ValueError):
            mesh.node_id(4, 0)
        with pytest.raises(ValueError):
            mesh.node_id(0, 3)
        with pytest.raises(ValueError):
            mesh.node_id(-1, 0)

    def test_coords_roundtrip(self):
        mesh = Mesh(5, 7)
        for node in range(mesh.n_nodes):
            x, y = mesh.coords(node)
            assert mesh.node_id(x, y) == node

    def test_coords_array(self):
        mesh = Mesh(4, 4)
        xs, ys = mesh.coords(np.array([0, 5, 15]))
        assert xs.tolist() == [0, 1, 3]
        assert ys.tolist() == [0, 1, 3]

    def test_coords_out_of_range(self):
        with pytest.raises(ValueError):
            Mesh(2, 2).coords(4)

    def test_axis_coords_full(self):
        mesh = Mesh(3, 2)
        xs, ys = mesh.axis_coords()
        assert xs.tolist() == [0, 1, 2, 0, 1, 2]
        assert ys.tolist() == [0, 0, 0, 1, 1, 1]

    def test_axis_coords_full_is_read_only(self):
        mesh = Mesh(4, 4)
        xs, _ = mesh.axis_coords()
        with pytest.raises(ValueError, match="read-only"):
            xs += 1
        assert mesh.coords(3) == (3, 0)
        assert mesh.axis_coords()[0].tolist() == [0, 1, 2, 3] * 4

    def test_axis_coords_subset(self):
        xs, ys = Mesh(3, 2).axis_coords([5, 1])
        assert xs.tolist() == [2, 1]
        assert ys.tolist() == [1, 0]

    def test_width_height(self):
        mesh = Mesh(16, 22)
        assert (mesh.width, mesh.height, mesh.n_dims) == (16, 22, 2)

    @pytest.mark.parametrize(
        "extents", [(16,), (2, 2, 2, 2), (4.7, 4), ("4", 4), (True, 4), ()]
    )
    def test_rejects_bad_extents(self, extents):
        with pytest.raises(ValueError, match="2-D or 3-D"):
            Mesh(*extents)

    def test_numpy_extents_normalised(self):
        mesh = Mesh(np.int64(4), np.int32(3))
        assert mesh.shape == (4, 3)
        assert all(type(n) is int for n in mesh.shape)

    def test_equality_and_hash(self):
        assert Mesh(4, 4) == Mesh(4, 4)
        assert Mesh(4, 4) != Mesh(4, 4, torus=True)
        assert Mesh(4, 4) != Mesh(4, 4, 1)
        assert len({Mesh(4, 4), Mesh(4, 4), Mesh(4, 4, torus=True)}) == 2


class TestDistances:
    def test_manhattan_scalar(self):
        mesh = Mesh(8, 8)
        assert mesh.manhattan(mesh.node_id(0, 0), mesh.node_id(3, 4)) == 7
        assert mesh.manhattan(5, 5) == 0

    def test_manhattan_symmetry(self):
        mesh = Mesh(6, 9)
        rng = np.random.default_rng(0)
        a = rng.integers(0, mesh.n_nodes, 50)
        b = rng.integers(0, mesh.n_nodes, 50)
        assert np.array_equal(mesh.manhattan(a, b), mesh.manhattan(b, a))

    def test_chebyshev(self):
        mesh = Mesh(8, 8)
        assert mesh.chebyshev(mesh.node_id(0, 0), mesh.node_id(3, 4)) == 4
        assert mesh.chebyshev(mesh.node_id(2, 2), mesh.node_id(2, 2)) == 0

    def test_chebyshev_le_manhattan(self):
        mesh = Mesh(7, 5)
        rng = np.random.default_rng(1)
        a = rng.integers(0, mesh.n_nodes, 100)
        b = rng.integers(0, mesh.n_nodes, 100)
        assert np.all(mesh.chebyshev(a, b) <= mesh.manhattan(a, b))

    def test_pairwise_manhattan(self):
        mesh = Mesh(4, 4)
        nodes = np.array([0, 3, 12, 15])
        d = mesh.pairwise_manhattan(nodes)
        assert d.shape == (4, 4)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert d[0, 3] == 6  # (0,0) -> (3,3)
        assert d[0, 1] == 3  # (0,0) -> (3,0)

    def test_torus_wraparound(self):
        mesh = Mesh(8, 8, torus=True)
        assert mesh.manhattan(mesh.node_id(0, 0), mesh.node_id(7, 0)) == 1
        assert mesh.manhattan(mesh.node_id(0, 0), mesh.node_id(0, 7)) == 1
        assert mesh.manhattan(mesh.node_id(0, 0), mesh.node_id(4, 4)) == 8

    @given(
        w=st.integers(2, 12),
        h=st.integers(2, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, w, h, seed):
        mesh = Mesh(w, h)
        rng = np.random.default_rng(seed)
        a, b, c = rng.integers(0, mesh.n_nodes, 3)
        assert mesh.manhattan(a, c) <= mesh.manhattan(a, b) + mesh.manhattan(b, c)


class TestNeighbors:
    def test_interior(self):
        mesh = Mesh(5, 5)
        nbrs = set(mesh.neighbors(mesh.node_id(2, 2)))
        expected = {
            mesh.node_id(3, 2),
            mesh.node_id(1, 2),
            mesh.node_id(2, 3),
            mesh.node_id(2, 1),
        }
        assert nbrs == expected

    def test_corner(self):
        mesh = Mesh(5, 5)
        assert len(mesh.neighbors(0)) == 2

    def test_edge(self):
        mesh = Mesh(5, 5)
        assert len(mesh.neighbors(mesh.node_id(2, 0))) == 3

    def test_torus_corner_has_four(self):
        mesh = Mesh(5, 5, torus=True)
        assert len(mesh.neighbors(0)) == 4

    def test_are_adjacent(self):
        mesh = Mesh(4, 4)
        assert mesh.are_adjacent(0, 1)
        assert mesh.are_adjacent(0, 4)
        assert not mesh.are_adjacent(0, 5)
        assert not mesh.are_adjacent(0, 0)

    def test_all_neighbors_in_range(self):
        mesh = Mesh(3, 7)
        for node in range(mesh.n_nodes):
            for nbr in mesh.neighbors(node):
                assert 0 <= nbr < mesh.n_nodes
                assert mesh.manhattan(node, nbr) == 1


class TestThreeDimensional:
    def test_n_nodes(self):
        assert Mesh(2, 3, 4).n_nodes == 24

    def test_coords_roundtrip(self):
        mesh = Mesh(3, 4, 2)
        for node in range(mesh.n_nodes):
            x, y, z = mesh.coords(node)
            assert mesh.node_id(x, y, z) == node

    def test_manhattan(self):
        mesh = Mesh(4, 4, 4)
        a = mesh.node_id(0, 0, 0)
        b = mesh.node_id(1, 2, 3)
        assert mesh.manhattan(a, b) == 6

    def test_neighbors_interior(self):
        mesh = Mesh(3, 3, 3)
        assert len(mesh.neighbors(mesh.node_id(1, 1, 1))) == 6

    def test_neighbors_corner(self):
        mesh = Mesh(3, 3, 3)
        assert len(mesh.neighbors(0)) == 3

    def test_torus_wrap(self):
        mesh = Mesh(4, 4, 4, torus=True)
        a = mesh.node_id(0, 0, 0)
        b = mesh.node_id(3, 3, 3)
        assert mesh.manhattan(a, b) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            Mesh(0, 1, 1)

    def test_axis_coords(self):
        xs, ys, zs = Mesh(2, 3, 4).axis_coords([0, 1, 2, 6, 23])
        assert xs.tolist() == [0, 1, 0, 0, 1]
        assert ys.tolist() == [0, 0, 1, 0, 2]
        assert zs.tolist() == [0, 0, 0, 1, 3]

    def test_pairwise_matches_manhattan(self):
        mesh = Mesh(3, 4, 5, torus=True)
        nodes = np.array([0, 7, 33, 59, 12])
        d = mesh.pairwise_manhattan(nodes)
        assert np.array_equal(
            d, mesh.manhattan(nodes[:, None], nodes[None, :])
        )

    def test_chebyshev(self):
        mesh = Mesh(4, 4, 4)
        assert mesh.chebyshev(0, mesh.node_id(1, 3, 2)) == 3


class TestParseMeshString:
    def test_forms(self):
        assert parse_mesh_string("16x22") == Mesh(16, 22)
        assert parse_mesh_string(" 8X8x8T ") == Mesh(8, 8, 8, torus=True)

    @pytest.mark.parametrize("bad", ["", "16", "ax b", "0x4", "2x2x2x2", "4.5x4"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_mesh_string(bad)
