"""Fig 2: the S-curve, Hilbert curve, and H-indexing orderings.

Renders the three curve families of Section 2.1 on a small square mesh
(the paper draws 8x8-style examples) and reports their structural
invariants (gap count, cycle closure, locality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.curves import Curve, get_curve
from repro.experiments.config import SMALL, Scale
from repro.mesh.topology import Mesh
from repro.viz.ascii_art import render_curve_path

__all__ = ["run", "report", "Fig2Result", "CURVES"]

CURVES = ("s-curve", "hilbert", "h-indexing")


@dataclass
class Fig2Result:
    """The three curves plus their renderings."""

    mesh_shape: tuple[int, int]
    curves: dict[str, Curve]
    art: dict[str, str]


def run(scale: Scale = SMALL, seed: int | None = None, side: int = 8) -> Fig2Result:
    """Build the three orderings on a ``side x side`` mesh."""
    mesh = Mesh(side, side)
    curves = {name: get_curve(name, mesh) for name in CURVES}
    art = {name: render_curve_path(curve) for name, curve in curves.items()}
    return Fig2Result(mesh_shape=mesh.shape, curves=curves, art=art)


def report(result: Fig2Result) -> str:
    """ASCII panels (a)/(b)/(c) with structural facts."""
    labels = {"s-curve": "(a) S-curve", "hilbert": "(b) Hilbert curve", "h-indexing": "(c) H-indexing"}
    blocks = []
    for name in CURVES:
        curve = result.curves[name]
        facts = (
            f"gaps={curve.n_gaps()}, closed cycle={'yes' if curve.is_cycle() else 'no'}"
        )
        blocks.append(f"{labels[name]}  [{facts}]\n{result.art[name]}")
    return "\n\n".join(blocks)
