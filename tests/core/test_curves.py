"""Tests for repro.core.curves: the orderings of Figs 2 and 6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import (
    Curve,
    curve_names,
    get_curve,
    h_indexing,
    h_indexing_points,
    hilbert,
    hilbert_points,
    row_major,
    s_curve,
)
from repro.mesh.topology import Mesh


class TestHilbertPoints:
    def test_order_zero(self):
        assert hilbert_points(0).tolist() == [[0, 0]]

    def test_order_one(self):
        # Standard orientation: (0,0) -> (0,1) -> (1,1) -> (1,0).
        assert hilbert_points(1).tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_endpoints(self):
        for order in (1, 2, 3, 4, 5):
            pts = hilbert_points(order)
            n = 1 << order
            assert pts[0].tolist() == [0, 0]
            assert pts[-1].tolist() == [n - 1, 0]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_hamiltonian_path(self, order):
        pts = hilbert_points(order)
        n = 1 << order
        # Visits every cell exactly once...
        assert len({(int(x), int(y)) for x, y in pts}) == n * n
        # ...moving one mesh step at a time.
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_self_similarity(self):
        """First quadrant of order k is the order k-1 curve (rotated)."""
        big = hilbert_points(4)
        first_quarter = big[: 8 * 8]
        assert first_quarter.max() <= 7  # stays inside one 8x8 quadrant


class TestHIndexingPoints:
    def test_order_zero(self):
        assert h_indexing_points(0).tolist() == [[0, 0]]

    def test_order_one_cycle(self):
        pts = h_indexing_points(1)
        assert len(pts) == 4
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_hamiltonian_cycle(self, order):
        pts = h_indexing_points(order)
        n = 1 << order
        assert len({(int(x), int(y)) for x, y in pts}) == n * n
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        assert np.all(steps == 1)
        # Closed: last point adjacent to first.
        wrap = np.abs(pts[-1] - pts[0]).sum()
        assert wrap == 1

    def test_left_half_comes_first(self):
        """Left-half-up / right-half-down structure of the closed curve."""
        pts = h_indexing_points(3)
        half = len(pts) // 2
        assert np.all(pts[:half, 0] < 4)
        assert np.all(pts[half:, 0] >= 4)


class TestCurveObject:
    def test_rank_inverse(self, mesh8):
        for name in curve_names():
            c = get_curve(name, mesh8)
            assert np.array_equal(c.order[c.rank], np.arange(64))
            assert np.array_equal(c.rank[c.order], np.arange(64))

    def test_rejects_non_permutation(self, mesh8):
        with pytest.raises(ValueError):
            Curve("bad", mesh8, np.zeros(64, dtype=np.int64))

    def test_points_shape(self, mesh8):
        pts = get_curve("hilbert", mesh8).points()
        assert pts.shape == (64, 2)

    def test_cache_returns_same_object(self, mesh8):
        assert get_curve("hilbert", mesh8) is get_curve("hilbert", mesh8)

    def test_unknown_name(self, mesh8):
        with pytest.raises(KeyError):
            get_curve("zigzag", mesh8)


class TestSquareCurves:
    """On power-of-two squares every curve must be gap-free."""

    @pytest.mark.parametrize("name", ["s-curve", "hilbert", "h-indexing"])
    def test_no_gaps_16x16(self, mesh16, name):
        c = get_curve(name, mesh16)
        assert c.n_gaps() == 0
        assert np.all(c.step_lengths() == 1)

    def test_row_major_has_row_gaps(self, mesh8):
        # Row-major jumps at the end of each row: 7 gaps on 8x8.
        assert row_major(mesh8).n_gaps() == 7

    def test_h_indexing_is_cycle(self, mesh16):
        assert get_curve("h-indexing", mesh16).is_cycle()

    def test_hilbert_is_not_cycle(self, mesh16):
        assert not get_curve("hilbert", mesh16).is_cycle()

    def test_s_curve_snake_shape(self):
        mesh = Mesh(4, 3)
        c = s_curve(mesh, runs="x")
        xs = mesh.axis_coords(c.order)[0].tolist()
        assert xs[:4] == [0, 1, 2, 3]
        assert xs[4:8] == [3, 2, 1, 0]

    def test_s_curve_runs_y(self):
        mesh = Mesh(3, 4)
        c = s_curve(mesh, runs="y")
        ys = mesh.axis_coords(c.order)[1].tolist()
        assert ys[:4] == [0, 1, 2, 3]
        assert ys[4:8] == [3, 2, 1, 0]

    def test_s_curve_short_on_16x22(self, mesh16x22):
        """Paper: runs go along the short (16-wide) direction."""
        c = s_curve(mesh16x22, runs="short")
        xs = mesh16x22.axis_coords(c.order)[0].tolist()
        assert xs[:16] == list(range(16))

    def test_s_curve_invalid_runs(self, mesh8):
        with pytest.raises(ValueError):
            s_curve(mesh8, runs="diagonal")


class TestTruncation:
    """Fig 6: truncating 32x32 curves to 16x22 creates gaps on top."""

    def test_s_curve_no_gaps_16x22(self, mesh16x22):
        assert get_curve("s-curve", mesh16x22).n_gaps() == 0

    @pytest.mark.parametrize("name", ["hilbert", "h-indexing"])
    def test_truncated_visits_everything(self, mesh16x22, name):
        c = get_curve(name, mesh16x22)
        assert len(c.order) == 352
        assert sorted(c.order.tolist()) == list(range(352))

    @pytest.mark.parametrize("name", ["hilbert", "h-indexing"])
    def test_truncated_has_gaps(self, mesh16x22, name):
        c = get_curve(name, mesh16x22)
        assert c.n_gaps() > 0

    @pytest.mark.parametrize("name", ["hilbert", "h-indexing"])
    def test_gaps_in_upper_region(self, mesh16x22, name):
        """The 32x32 curve only exits the 16x22 window where it is wider
        than the window -- so every gap endpoint lies in the top half."""
        mesh = mesh16x22
        c = get_curve(name, mesh)
        for r in c.gap_ranks():
            y_before = mesh.coords(int(c.order[r]))[1]
            y_after = mesh.coords(int(c.order[r + 1]))[1]
            assert max(int(y_before), int(y_after)) >= 16

    def test_16x16_truncation_is_contiguous_subcurve(self, mesh16):
        """Truncating 32x32 Hilbert to one quadrant yields a gap-free curve."""
        c = get_curve("hilbert", mesh16)
        assert c.n_gaps() == 0


class TestLocalityProperty:
    @given(
        name=st.sampled_from(["s-curve", "hilbert", "h-indexing", "row-major"]),
        w=st.sampled_from([4, 8, 16]),
        h=st.sampled_from([4, 8, 16, 22]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_curve_is_1_lipschitz(self, name, w, h, seed):
        """Mesh distance between two cells never exceeds their rank gap ...

        ... when the curve is gap-free between them; in general the bound
        is |rank difference| + (gap slack).  We assert the universal form:
        d(c_i, c_j) <= |i - j| + total gap excess, and the exact Lipschitz
        bound for gap-free curves.
        """
        mesh = Mesh(w, h)
        c = get_curve(name, mesh)
        rng = np.random.default_rng(seed)
        i, j = (int(v) for v in rng.integers(0, mesh.n_nodes, 2))
        d = mesh.manhattan(int(c.order[i]), int(c.order[j]))
        steps = c.step_lengths()
        lo, hi = min(i, j), max(i, j)
        assert d <= int(steps[lo:hi].sum())
        if c.n_gaps() == 0:
            assert d <= abs(i - j)
