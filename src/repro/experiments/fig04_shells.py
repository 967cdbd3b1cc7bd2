"""Fig 4: illustration of MC's shells around a processor for a 3x1 request.

Reproduces the paper's shell diagram: the requested submesh is shell 0,
successive rectangular rings get weights 1, 2, 3, ...; allocated processors
don't count toward the allocation but still occupy shell positions.  Also
reports the MC cost of every candidate anchor on the illustrated machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mc import MCAllocator
from repro.experiments.config import SMALL, Scale
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.viz.ascii_art import render_shells

__all__ = ["run", "report", "Fig4Result", "SHAPE"]

SHAPE = (3, 1)  # the paper's example request


@dataclass
class Fig4Result:
    """Shell rendering and anchor costs for the illustrated scenario."""

    mesh_shape: tuple[int, int]
    anchor: tuple[int, int]
    art: str
    anchor_costs: dict[tuple[int, int], int]
    best_anchor: tuple[int, int]


def run(scale: Scale = SMALL, seed: int | None = None) -> Fig4Result:
    """Build the Fig 4 scenario: an 11x7 machine with some busy nodes."""
    rng = np.random.default_rng(scale.seed if seed is None else seed)
    mesh = Mesh(11, 7)
    machine = Machine(mesh)
    busy = rng.choice(mesh.n_nodes, size=18, replace=False)
    machine.allocate(busy, job_id=1)
    anchor = (4, 3)
    art = render_shells(mesh, anchor[0], anchor[1], SHAPE, machine)
    costs = MCAllocator.anchor_costs(machine, k=3, shape=SHAPE)
    best = min(costs, key=lambda a: (costs[a], a[1], a[0]))
    return Fig4Result(
        mesh_shape=mesh.shape,
        anchor=anchor,
        art=art,
        anchor_costs=costs,
        best_anchor=best,
    )


def report(result: Fig4Result) -> str:
    """Shell map plus the winning anchor."""
    w, h = result.mesh_shape
    ax, ay = result.anchor
    lines = [
        f"Fig 4 -- MC shells for a {SHAPE[0]}x{SHAPE[1]} request anchored at "
        f"({ax},{ay}) on a {w}x{h} machine",
        "('.' = requested submesh, digits = shell weight, '#' = allocated)",
        result.art,
        f"cost of illustrated anchor: {result.anchor_costs[result.anchor]}",
        f"lowest-cost anchor: {result.best_anchor} "
        f"(cost {result.anchor_costs[result.best_anchor]})",
    ]
    return "\n".join(lines)
