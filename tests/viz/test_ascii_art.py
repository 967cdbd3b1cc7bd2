"""Tests for repro.viz.ascii_art."""

import numpy as np
import pytest

from repro.core.curves import get_curve
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.viz.ascii_art import (
    render_curve_path,
    render_curve_ranks,
    render_occupancy,
    render_shells,
    render_truncation,
)


class TestCurveRendering:
    def test_path_has_one_line_per_row(self, mesh8):
        art = render_curve_path(get_curve("hilbert", mesh8))
        assert len(art.splitlines()) == 8

    def test_snake_path_shape(self):
        mesh = Mesh(4, 2)
        art = render_curve_path(get_curve("s-curve", mesh, runs="x"))
        lines = art.splitlines()
        # bottom row runs east, top row runs back west, joined at the right
        assert lines[1].startswith("╶")
        assert "┐" in lines[0] + lines[1]

    def test_ranks_grid_contains_all_ranks(self, mesh8):
        art = render_curve_ranks(get_curve("hilbert", mesh8))
        numbers = {int(tok) for tok in art.split()}
        assert numbers == set(range(64))

    def test_ranks_bottom_row_is_y0(self):
        mesh = Mesh(3, 2)
        art = render_curve_ranks(get_curve("row-major", mesh))
        bottom = art.splitlines()[-1].split()
        assert bottom == ["0", "1", "2"]

    def test_truncation_marks_gaps(self):
        mesh = Mesh(16, 22)
        curve = get_curve("hilbert", mesh)
        art = render_truncation(curve, top_rows=6)
        body = "\n".join(art.splitlines()[1:])  # header mentions '*' itself
        assert body.count("*") == curve.n_gaps()
        assert "3 gaps" in art


class TestShellsAndOccupancy:
    def test_shells_marks_submesh(self):
        mesh = Mesh(7, 5)
        art = render_shells(mesh, 2, 2, (3, 1))
        assert art.count(".") == 3

    def test_shells_marks_busy(self):
        mesh = Mesh(5, 5)
        machine = Machine(mesh)
        machine.allocate([0, 1], job_id=4)
        art = render_shells(mesh, 2, 2, (1, 1), machine)
        assert art.count("#") == 2

    def test_occupancy_letters(self):
        mesh = Mesh(4, 4)
        machine = Machine(mesh)
        machine.allocate([0, 1], job_id=0)
        machine.allocate([2], job_id=1)
        art = render_occupancy(machine)
        assert art.splitlines()[-1].startswith("aab")
        assert art.count(".") == 13

    def test_occupancy_empty(self):
        machine = Machine(Mesh(3, 3))
        art = render_occupancy(machine)
        assert art.replace("\n", "") == "." * 9
