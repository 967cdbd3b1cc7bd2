"""ASCII renderings of the paper's illustrative figures.

* :func:`render_curve_path` -- box-drawing picture of a curve (Fig 2),
* :func:`render_curve_ranks` -- numeric rank grid of a curve,
* :func:`render_truncation` -- the top rows of a truncated curve with gap
  markers (Fig 6),
* :func:`render_shells` -- shell weights around a request (Fig 4),
* :func:`render_occupancy` -- which job holds each processor.

All renderings put y = 0 at the *bottom* (mesh convention), matching the
paper's figures.
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import Curve
from repro.core.mc import shell_map
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

__all__ = [
    "render_curve_path",
    "render_curve_ranks",
    "render_occupancy",
    "render_shells",
    "render_truncation",
]

# Path glyph by (has_west, has_east, has_north, has_south) connections.
_PATH_GLYPHS = {
    (True, True, False, False): "──",
    (False, False, True, True): "│ ",
    (False, True, True, False): "└─",
    (True, False, True, False): "┘ ",
    (False, True, False, True): "┌─",
    (True, False, False, True): "┐ ",
    (True, False, False, False): "╴ ",
    (False, True, False, False): "╶─",
    (False, False, True, False): "╵ ",
    (False, False, False, True): "╷ ",
    (False, False, False, False): "· ",
}


def render_curve_path(curve: Curve) -> str:
    """Draw the curve as connected box-drawing segments (like Fig 2)."""
    mesh = curve.mesh
    w, h = mesh.width, mesh.height
    # Connection sets per cell from consecutive curve steps.
    conn: dict[int, set[str]] = {int(n): set() for n in curve.order}
    for a, b in zip(curve.order[:-1], curve.order[1:]):
        a, b = int(a), int(b)
        if mesh.manhattan(a, b) != 1:
            continue  # gap: no segment drawn
        ax, ay = mesh.coords(a)
        bx, by = mesh.coords(b)
        if bx == ax + 1:
            conn[a].add("E")
            conn[b].add("W")
        elif bx == ax - 1:
            conn[a].add("W")
            conn[b].add("E")
        elif by == ay + 1:
            conn[a].add("N")
            conn[b].add("S")
        else:
            conn[a].add("S")
            conn[b].add("N")
    lines = []
    for y in range(h - 1, -1, -1):
        row = []
        for x in range(w):
            c = conn[mesh.node_id(x, y)]
            glyph = _PATH_GLYPHS[("W" in c, "E" in c, "N" in c, "S" in c)]
            # Horizontal continuation only if connected east.
            row.append(glyph if "E" in c else glyph[0] + " ")
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def render_curve_ranks(curve: Curve, cell_width: int | None = None) -> str:
    """Grid of curve ranks, one cell per processor."""
    mesh = curve.mesh
    n = mesh.n_nodes
    cell_width = cell_width or len(str(n - 1))
    lines = []
    for y in range(mesh.height - 1, -1, -1):
        row = [
            str(int(curve.rank[mesh.node_id(x, y)])).rjust(cell_width)
            for x in range(mesh.width)
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_truncation(curve: Curve, top_rows: int = 6) -> str:
    """Fig 6 view: rank grid of the top rows, marking post-gap cells.

    Cells entered via a discontinuity (the paper's arrows) are suffixed
    with ``*``.
    """
    mesh = curve.mesh
    after_gap = {int(curve.order[r + 1]) for r in curve.gap_ranks()}
    cell_width = len(str(mesh.n_nodes - 1)) + 1
    lines = [
        f"{curve.name} on {mesh.width}x{mesh.height}: top {top_rows} rows "
        f"({curve.n_gaps()} gaps, * marks the processor after a gap)"
    ]
    for y in range(mesh.height - 1, mesh.height - 1 - top_rows, -1):
        row = []
        for x in range(mesh.width):
            node = mesh.node_id(x, y)
            text = str(int(curve.rank[node]))
            if node in after_gap:
                text += "*"
            row.append(text.rjust(cell_width))
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_shells(
    mesh: Mesh,
    anchor_x: int,
    anchor_y: int,
    shape: tuple[int, int],
    machine: Machine | None = None,
) -> str:
    """Fig 4 view: shell weight of every processor around a request.

    Busy processors (when a machine is given) render as ``#``; shell 0 --
    the requested submesh -- renders as ``.``.
    """
    shells = shell_map(mesh, anchor_x, anchor_y, shape)
    lines = []
    for y in range(mesh.height - 1, -1, -1):
        row = []
        for x in range(mesh.width):
            node = mesh.node_id(x, y)
            if machine is not None and not machine.is_free(node):
                row.append(" #")
            elif shells[node] == 0:
                row.append(" .")
            else:
                row.append(str(int(shells[node])).rjust(2))
        lines.append("".join(row))
    return "\n".join(lines)


def render_occupancy(machine: Machine) -> str:
    """Letters per job id (``.`` = free); job ids map to a-z cyclically."""
    mesh = machine.mesh
    lines = []
    for y in range(mesh.height - 1, -1, -1):
        row = []
        for x in range(mesh.width):
            owner = int(machine.owner[mesh.node_id(x, y)])
            row.append("." if owner < 0 else chr(ord("a") + owner % 26))
        lines.append("".join(row))
    return "\n".join(lines)
