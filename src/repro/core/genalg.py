"""Gen-Alg: Krumke et al.'s approximation for compact location (Section 2.2).

    For each possible point p:
        1. take the k - 1 points closest to p,
        2. compute the total pairwise distance of all k points;
    return the k-point set with the smallest total pairwise distance.

Krumke et al. prove this is a (2 - 2/k)-approximation for minimising the
average pairwise distance of the selected set, for any metric obeying the
triangle inequality.  Here the candidate points are the free processors and
the metric is Manhattan distance.

Implementation notes (this runs for every allocation in the trace sweeps):
the Manhattan pairwise-distance sum decomposes per axis, and for sorted
coordinates ``c_(0) <= ... <= c_(k-1)`` equals ``sum_j (2j - k + 1) c_(j)``,
so the evaluation of *all* candidate centres vectorises into two
``(n_free, k)`` sorts -- no Python-level loop.  Ties (equal distance to the
centre) break toward lower node id, and ties between centres toward the
lower centre id, making the allocator fully deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MESH_2D, Allocation, Allocator, Request
from repro.mesh.machine import Machine

__all__ = ["GenAlgAllocator"]


def _axis_pairwise_sums(coords: np.ndarray) -> np.ndarray:
    """Row-wise sum over pairs ``|c_i - c_j|`` (i < j) for a 2-D array."""
    k = coords.shape[1]
    c = np.sort(coords, axis=1)
    weight = 2 * np.arange(k, dtype=np.int64) - k + 1
    return (c * weight).sum(axis=1)


class GenAlgAllocator(Allocator):
    """The Gen-Alg allocator of Fig 3."""

    name = "gen-alg"
    places_on = frozenset({MESH_2D})

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        mesh = machine.mesh
        free = machine.free_nodes()
        k = request.size
        n_free = len(free)
        if k == n_free:
            return Allocation(
                job_id=request.job_id,
                nodes=self._order_by_medoid(mesh, free),
            )

        # Candidate sets: each free centre plus its k-1 nearest free nodes.
        dist = mesh.pairwise_manhattan(free)
        # Composite key makes ties-by-node-id exact (ids < n_nodes).
        key = dist.astype(np.int64) * mesh.n_nodes + free[None, :]
        near = np.argpartition(key, k - 1, axis=1)[:, :k]

        fx, fy = mesh.axis_coords(free)
        totals = _axis_pairwise_sums(fx[near]) + _axis_pairwise_sums(fy[near])
        centre = int(np.argmin(totals))  # first minimum = lowest centre id
        members = free[near[centre]]
        return Allocation(
            job_id=request.job_id, nodes=self._order_by_medoid(mesh, members)
        )

    @staticmethod
    def _order_by_medoid(mesh, members: np.ndarray) -> np.ndarray:
        """Rank order: distance from the set's medoid, ties by node id.

        The medoid (member minimising total distance to the others) anchors
        the order so the job's virtual ring stays geographically coherent;
        the paper does not specify a rank order for MC/Gen-Alg allocations,
        see docs/substitutions.md substitution #5.  Equal-distance members are ranked
        by node id, but a tie between equal-sum medoids goes to the one
        that comes first in ``members`` -- not to the lower node id.  For
        a candidate set that order is ``np.argpartition``'s output order,
        which NumPy does not specify, so such a tie is settled by NumPy's
        partition implementation.
        """
        members = np.asarray(members, dtype=np.int64)
        if len(members) == 1:
            return members.copy()
        dm = mesh.pairwise_manhattan(members)
        medoid = int(np.argmin(dm.sum(axis=1)))
        order = np.lexsort((members, dm[medoid]))
        return members[order]
