"""MC and MC1x1 shell-cost allocators (Section 2.3, Fig 4).

MC (Mache, Lo & Windisch) assumes jobs request a submesh shape such as
4 x 6.  Every candidate placement is scored by looking at the requested
submesh ("shell 0") and the rectangular rings ("shells") around it:
free processors are weighted by their shell number -- 0 inside the
submesh, 1 in the first ring, 2 in the second, and so on -- and the
allocation's cost is the summed weight of the k free processors it would
actually take, innermost shells first.  The placement with the lowest cost
wins; a perfectly free submesh costs 0.

MC1x1 is the Cplant-deployable variant: shell 0 is a single processor and
shells grow the same way (Chebyshev rings), so no shape is needed.  Krumke
et al.'s result implies MC1x1 is a (4 - 4/k)-approximation for average
pairwise distance.

Because Cplant jobs carry no shape, our MC infers one: the most-square
rectangle ``a x b`` with ``a * b >= k`` and minimal perimeter (then minimal
area), the natural reading of "users request an allocation with dimensions
that can fit the job".  An explicitly provided :attr:`Request.shape`
overrides the inference.

Conventions the paper leaves open (docs/substitutions.md substitution
#5): candidate placements are all anchor positions where the submesh lies
inside the mesh (every free processor for MC1x1); shells are clipped at
mesh boundaries, and do not wrap on a torus; within a tied shell
processors are taken in row-major order; tied anchors resolve to the
lowest row-major anchor.  Returned rank order is (shell, row-major) --
innermost first.

Scoring costs O(F * S) for F free processors and S = max(W, H) shells,
not O(F^2): :func:`shell_costs` reads how many free processors lie in
shells ``0..s`` of a candidate from one summed-area table of the free
grid (Crow, SIGGRAPH 1984), and the cost is the identity
``sum_s max(k - C_s, 0)`` over those counts.  It is all integer
arithmetic, so costs, the first-minimum anchor and the selection equal the
literal ``F x F`` shell-matrix form, which is kept as the test oracle
``tests/oracles/mc.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MESH_2D, Allocation, Allocator, Request
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

__all__ = ["MCAllocator", "infer_shape", "shell_costs", "shell_map"]


def infer_shape(k: int, mesh: Mesh) -> tuple[int, int]:
    """Most-square covering rectangle for ``k`` processors that fits ``mesh``.

    Minimises (perimeter, area, width) over rectangles with ``a * b >= k``
    clipped to the mesh dimensions; e.g. 12 -> 4x3, 7 -> 3x3 (not 1x7).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > mesh.n_nodes:
        raise ValueError(f"shape for {k} cannot fit mesh {mesh.shape}")
    best: tuple[int, int, int, tuple[int, int]] | None = None
    for a in range(1, mesh.width + 1):
        b = -(-k // a)  # ceil(k / a)
        if b > mesh.height:
            continue
        cand = (2 * (a + b), a * b, a, (a, b))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ValueError(f"no {k}-processor rectangle fits mesh {mesh.shape}")
    return best[3]


def shell_map(mesh: Mesh, anchor_x: int, anchor_y: int, shape: tuple[int, int]) -> np.ndarray:
    """Shell number of every node for a submesh anchored at (anchor_x, anchor_y).

    Shell 0 is the ``a x b`` submesh whose lower-left corner sits at the
    anchor; shell i is the rectangular ring at Chebyshev distance i from it
    (Fig 4).  Returns an ``(n_nodes,)`` int array.
    """
    a, b = shape
    xs, ys = mesh.axis_coords()
    dx = np.maximum(np.maximum(anchor_x - xs, 0), xs - (anchor_x + a - 1))
    dy = np.maximum(np.maximum(anchor_y - ys, 0), ys - (anchor_y + b - 1))
    return np.maximum(dx, dy)


def shell_costs(
    machine: Machine,
    anchor_x: np.ndarray,
    anchor_y: np.ndarray,
    shape: tuple[int, int],
    k: int,
) -> np.ndarray:
    """MC cost of each ``a x b`` submesh anchored at ``(anchor_x, anchor_y)``.

    The cost is the summed shell number of the ``k`` innermost free
    processors.  With ``C_s`` the free processors in shells ``0..s`` -- the
    submesh grown by ``s`` on every side, clipped to the mesh, so 4
    lookups in a summed-area table of the free grid -- exactly
    ``max(k - C_s, 0)`` of those ``k`` lie beyond shell ``s``, so the cost
    is ``sum_s max(k - C_s, 0)``.  ``C_s`` never decreases, so an anchor
    is done at its first ``C_s >= k``; shells are scored in doubling
    blocks (``s`` in [0, 4), [4, 8), [8, 16), ...) over the anchors not
    yet done, and no shell exceeds ``max(W - a, H - b)``.  Anchors must
    keep the submesh inside the mesh.
    """
    mesh = machine.mesh
    w, h = mesh.width, mesh.height
    a, b = shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    sat[1:, 1:] = machine.free_mask.reshape(h, w).cumsum(axis=0).cumsum(axis=1)
    sat = sat.ravel()
    n_shells = max(w - a, h - b)
    costs = np.zeros(len(anchor_x), dtype=np.int64)
    live = np.arange(len(anchor_x))
    lo, hi = 0, 4
    while lo < n_shells and len(live):
        s = np.arange(lo, min(hi, n_shells))
        ax = anchor_x[live, None]
        ay = anchor_y[live, None]
        # Rectangle x in [x0, x1), y in [y0, y1); y pre-scaled to SAT rows.
        x0 = np.maximum(ax - s, 0)
        x1 = np.minimum(ax + (a + s), w)
        y0 = np.maximum(ay - s, 0) * (w + 1)
        y1 = np.minimum(ay + (b + s), h) * (w + 1)
        short = k - (sat[y1 + x1] - sat[y0 + x1] - sat[y1 + x0] + sat[y0 + x0])
        costs[live] += np.maximum(short, 0).sum(axis=1)
        live = live[short[:, -1] > 0]
        lo, hi = hi, 2 * hi
    return costs


class MCAllocator(Allocator):
    """MC (shaped shells) or MC1x1 (point shells) allocator.

    Parameters
    ----------
    shaped:
        True for MC (infer/accept a submesh shape); False for MC1x1.
    """

    places_on = frozenset({MESH_2D})

    def __init__(self, shaped: bool = True):
        self.shaped = shaped
        self.name = "mc" if shaped else "mc1x1"

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        mesh = machine.mesh
        k = request.size
        free = machine.free_nodes()
        fx, fy = mesh.axis_coords(free)

        if self.shaped:
            shape = request.shape or infer_shape(k, mesh)
        else:
            shape = (1, 1)
        a, b = shape
        if a > mesh.width or b > mesh.height:
            raise ValueError(f"shape {shape} does not fit mesh {mesh.shape}")

        # "Each free processor evaluates the quality of an allocation
        # centered on itself": one candidate submesh per free processor,
        # clamped so the a x b rectangle stays inside the mesh.  Free
        # processors are in ascending node id, so cost ties resolve to the
        # lowest row-major centre.
        anchor_x = np.minimum(np.maximum(fx - (a - 1) // 2, 0), mesh.width - a)
        anchor_y = np.minimum(np.maximum(fy - (b - 1) // 2, 0), mesh.height - b)
        best = int(np.argmin(shell_costs(machine, anchor_x, anchor_y, shape, k)))

        # Select the k free nodes for that anchor: by (shell, row-major id).
        shells = shell_map(mesh, int(anchor_x[best]), int(anchor_y[best]), shape)
        order = np.lexsort((free, shells[free]))
        return Allocation(job_id=request.job_id, nodes=free[order[:k]])

    @staticmethod
    def anchor_costs(
        machine: Machine, k: int, shape: tuple[int, int]
    ) -> dict[tuple[int, int], int]:
        """Cost of every anchor position (introspection/visualisation aid)."""
        mesh = machine.mesh
        a, b = shape
        if machine.n_free < k:
            raise ValueError("not enough free processors")
        xs, ys = np.divmod(
            np.arange((mesh.width - a + 1) * (mesh.height - b + 1)),
            mesh.height - b + 1,
        )
        costs = shell_costs(machine, xs, ys, shape, k)
        return {
            (int(x), int(y)): int(c) for x, y, c in zip(xs, ys, costs, strict=True)
        }
