"""Tests for repro.core.curves on N-D grids: Hilbert indexings, 3-D builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import get_curve, hilbert_points, s_curve
from repro.mesh.topology import Mesh

CURVES_3D = ["hilbert", "row-major", "s-curve"]


def hilbert_order(mesh):
    return get_curve("hilbert", mesh).order


class TestHilbertNd:
    def test_order_zero(self):
        assert hilbert_points(0, 3).tolist() == [[0, 0, 0]]

    def test_2d_matches_dimension_count(self):
        pts = hilbert_points(2, 2)
        assert pts.shape == (16, 2)

    def test_2d_default_endpoints(self):
        """The 2-D curve runs from (0, 0) to (2^order - 1, 0)."""
        pts = hilbert_points(3)
        assert pts[0].tolist() == [0, 0]
        assert pts[-1].tolist() == [7, 0]

    @pytest.mark.parametrize("order,n_dims", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
    def test_hamiltonian_path(self, order, n_dims):
        """Visits every cell of the hypercube exactly once, in unit steps."""
        pts = hilbert_points(order, n_dims)
        n = 1 << order
        assert len(pts) == n**n_dims
        assert len({tuple(p) for p in pts.tolist()}) == n**n_dims
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_coordinates_in_range(self):
        pts = hilbert_points(2, 3)
        assert pts.min() == 0 and pts.max() == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            hilbert_points(-1, 2)
        with pytest.raises(ValueError):
            hilbert_points(2, 0)

    @given(order=st.integers(1, 3))
    @settings(max_examples=3, deadline=None)
    def test_property_locality_3d(self, order):
        """1-Lipschitz: mesh distance never exceeds the rank gap."""
        pts = hilbert_points(order, 3)
        rng = np.random.default_rng(order)
        idx = rng.integers(0, len(pts), size=(50, 2))
        d = np.abs(pts[idx[:, 0]] - pts[idx[:, 1]]).sum(axis=1)
        assert np.all(d <= np.abs(idx[:, 0] - idx[:, 1]))


class TestHilbertOrder3D:
    def test_cube_permutation(self):
        mesh = Mesh(4, 4, 4)
        order = hilbert_order(mesh)
        assert sorted(order.tolist()) == list(range(64))
        # unit steps throughout on the exact power-of-two cube
        steps = [mesh.manhattan(int(a), int(b)) for a, b in zip(order, order[1:])]
        assert all(s == 1 for s in steps)

    def test_truncated_box(self):
        mesh = Mesh(4, 3, 2)
        order = hilbert_order(mesh)
        assert sorted(order.tolist()) == list(range(24))

    def test_truncation_creates_gaps_only(self):
        """Truncated ordering still visits everything; steps >= 1."""
        mesh = Mesh(5, 4, 3)
        order = hilbert_order(mesh)
        assert len(order) == 60
        steps = [mesh.manhattan(int(a), int(b)) for a, b in zip(order, order[1:])]
        assert min(steps) >= 1


class TestCurveBuilders3D:
    @pytest.mark.parametrize("name", CURVES_3D)
    def test_builders_produce_valid_curves(self, name):
        mesh = Mesh(4, 3, 5)
        curve = get_curve(name, mesh)
        assert curve.name == name
        assert sorted(curve.order.tolist()) == list(range(mesh.n_nodes))
        assert np.array_equal(curve.order[curve.rank], np.arange(mesh.n_nodes))

    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8, 8), (3, 5, 2)])
    def test_s_curve3d_is_gapless_hamiltonian_path(self, shape):
        """The 3-D boustrophedon takes unit steps at every mesh size."""
        mesh = Mesh(*shape)
        curve = s_curve(mesh)
        assert curve.n_gaps() == 0

    def test_hilbert3d_gapless_on_power_of_two_cube(self):
        assert get_curve("hilbert", Mesh(8, 8, 8)).n_gaps() == 0

    def test_s_curve_runs_is_2d_only(self):
        with pytest.raises(ValueError, match="2-D meshes only"):
            s_curve(Mesh(3, 3, 3), runs="y")

    def test_points_are_3d(self):
        pts = get_curve("s-curve", Mesh(3, 3, 3)).points()
        assert pts.shape == (27, 3)

    def test_get_curve_caches_by_shape_and_torus(self):
        a = get_curve("hilbert", Mesh(4, 4, 4))
        b = get_curve("hilbert", Mesh(4, 4, 4))
        c = get_curve("hilbert", Mesh(4, 4, 4, torus=True))
        assert a is b and a is not c

    def test_h_indexing_has_no_3d_construction(self):
        with pytest.raises(ValueError, match="no 3-D construction"):
            get_curve("h-indexing", Mesh(4, 4, 4))

    def test_unknown_name_still_keyerror(self):
        with pytest.raises(KeyError):
            get_curve("zigzag", Mesh(4, 4, 4))
