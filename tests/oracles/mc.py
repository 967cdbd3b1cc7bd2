"""The ``F x F`` shell-matrix form of MC / MC1x1 selection.

This is the allocator's original, literal reading of Mache, Lo &
Windisch: one candidate submesh per free processor, the shell number of
every free processor with respect to every candidate (an ``F x F``
matrix), each row's cost the sum of its ``k`` smallest shells
(``np.partition``), the first minimum-cost candidate, and its ``k`` free
processors in ``(shell, node id)`` order.  :class:`repro.core.mc.MCAllocator`
scores the same candidates from a summed-area table instead and must
return exactly these node arrays, order included.

Only :func:`repro.core.mc.infer_shape` is shared with the code under
test; the shells, costs and selection are computed here from scratch.
"""

from __future__ import annotations

import numpy as np

from repro.core.mc import infer_shape
from repro.mesh.machine import Machine

__all__ = ["mc_anchor_costs", "mc_nodes"]


def _shells(fx, fy, anchor_x, anchor_y, shape) -> np.ndarray:
    """``(len(anchor_x), len(fx))`` Chebyshev ring number of every free
    node around every ``a x b`` submesh anchored at its lower-left corner."""
    a, b = shape
    ax = np.asarray(anchor_x)[:, None]
    ay = np.asarray(anchor_y)[:, None]
    dx = np.maximum(np.maximum(ax - fx[None, :], 0), fx[None, :] - (ax + a - 1))
    dy = np.maximum(np.maximum(ay - fy[None, :], 0), fy[None, :] - (ay + b - 1))
    return np.maximum(dx, dy)


def mc_nodes(
    machine: Machine, k: int, shaped: bool, shape: tuple[int, int] | None = None
) -> np.ndarray | None:
    """Nodes MC (``shaped``) or MC1x1 picks for a ``k``-processor request,
    in rank order, or None when fewer than ``k`` processors are free.

    ``shape`` plays the part of ``Request.shape``: MC uses it when given
    and infers the most-square covering rectangle otherwise.
    """
    mesh = machine.mesh
    free = machine.free_nodes()
    if len(free) < k:
        return None
    fx, fy = mesh.axis_coords(free)
    a, b = (shape or infer_shape(k, mesh)) if shaped else (1, 1)
    anchor_x = np.clip(fx - (a - 1) // 2, 0, mesh.width - a)
    anchor_y = np.clip(fy - (b - 1) // 2, 0, mesh.height - b)
    shells = _shells(fx, fy, anchor_x, anchor_y, (a, b))
    costs = np.partition(shells, k - 1, axis=1)[:, :k].sum(axis=1)
    best = int(np.argmin(costs))
    order = np.lexsort((free, shells[best]))
    return free[order[:k]]


def mc_anchor_costs(
    machine: Machine, k: int, shape: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Cost of every in-mesh anchor ``(x, y)``: the sum of the ``k``
    smallest shell numbers among the free processors."""
    mesh = machine.mesh
    a, b = shape
    free = machine.free_nodes()
    fx, fy = mesh.axis_coords(free)
    out: dict[tuple[int, int], int] = {}
    for x in range(mesh.width - a + 1):
        for y in range(mesh.height - b + 1):
            row = _shells(fx, fy, [x], [y], shape)[0]
            out[(x, y)] = int(np.partition(row, k - 1)[:k].sum())
    return out
