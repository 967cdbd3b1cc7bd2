"""Fig 6: Hilbert and H-indexing truncated to the 16x22 mesh.

"To get a curve for the 16x22 machine, we truncated a 32x32 curve to the
appropriate size.  The result is 'curves' with gaps along the top edge, as
shown in Figure 6.  Arrows indicate the processor after a gap."

The driver reports, for each curve, the top 16x6 processors of the mesh
(rows 16-21) as curve ranks with the post-gap processors marked, plus the
exact gap positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.curves import Curve, get_curve
from repro.experiments.config import SMALL, Scale
from repro.mesh.topology import Mesh
from repro.viz.ascii_art import render_truncation

__all__ = ["run", "report", "Fig6Result", "TOP_ROWS"]

TOP_ROWS = 6  # the paper shows the "top 16x6 processors"


@dataclass
class Fig6Result:
    """Truncated curves with gap accounting."""

    mesh_shape: tuple[int, int]
    curves: dict[str, Curve]
    art: dict[str, str]
    gaps: dict[str, list[tuple[int, int]]]  # (rank before gap, step length)


def run(scale: Scale = SMALL, seed: int | None = None) -> Fig6Result:
    """Truncate the 32x32 curves to 16x22 and locate the gaps."""
    mesh = Mesh(16, 22)
    curves = {name: get_curve(name, mesh) for name in ("hilbert", "h-indexing")}
    art = {n: render_truncation(c, top_rows=TOP_ROWS) for n, c in curves.items()}
    steps = {n: c.step_lengths() for n, c in curves.items()}
    gaps = {
        n: [(int(r), int(steps[n][r])) for r in c.gap_ranks()]
        for n, c in curves.items()
    }
    return Fig6Result(mesh_shape=mesh.shape, curves=curves, art=art, gaps=gaps)


def report(result: Fig6Result) -> str:
    """Top-rows renderings plus gap positions."""
    blocks = []
    for name, curve in result.curves.items():
        gap_text = ", ".join(
            f"after rank {r} (jump of {step})" for r, step in result.gaps[name]
        )
        blocks.append(f"{result.art[name]}\ngaps: {gap_text or 'none'}")
    return "\n\n".join(blocks)
