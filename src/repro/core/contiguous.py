"""Contiguous (submesh) allocation baseline.

The paper's Section 2 motivates noncontiguous allocation by recalling that
"initial processor-allocation algorithms allocated only convex sets of
processors to a job ... Unfortunately, requiring that jobs be allocated to
convex sets of processors reduces system utilization to levels unacceptable
for any government-audited system."

:class:`FirstFitSubmesh` reproduces that baseline: each job receives a free
``a x b`` rectangle (the most-square rectangle covering its size, or the
request's explicit shape), scanning anchors in row-major order -- the
classic 2-D first-fit submesh strategy (Zhu; Chuang & Tzeng).  A job whose
rectangle does not currently exist simply waits, which is exactly the
utilization loss the paper describes; ``benchmarks/test_contiguous_bench.py``
quantifies it against the noncontiguous strategies.

The rectangle is held in full; processors beyond the job's size are
internal fragmentation (reported via :attr:`Allocation.fragmentation`).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MESH_2D, Allocation, Allocator, Request
from repro.core.mc import infer_shape
from repro.mesh.machine import Machine

__all__ = ["FirstFitSubmesh"]


class FirstFitSubmesh(Allocator):
    """First-fit free-rectangle allocator (convex/contiguous baseline).

    Parameters
    ----------
    rotate:
        Also try the transposed shape ``b x a`` when the primary shape does
        not fit anywhere (classic rotation trick; on by default).
    """

    name = "first-fit-submesh"
    places_on = frozenset({MESH_2D})

    def __init__(self, rotate: bool = True):
        self.rotate = rotate

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        mesh = machine.mesh
        shape = request.shape or infer_shape(request.size, mesh)
        candidates = [shape]
        if self.rotate and shape[0] != shape[1]:
            a, b = shape
            if b <= mesh.width and a <= mesh.height:
                candidates.append((b, a))
        free = machine.free_mask.reshape(mesh.height, mesh.width)
        # 2-D prefix sums turn "is this rectangle fully free?" into O(1).
        prefix = np.zeros((mesh.height + 1, mesh.width + 1), dtype=np.int64)
        prefix[1:, 1:] = np.cumsum(np.cumsum(free, axis=0), axis=1)
        for a, b in candidates:
            anchor = self._first_free_rectangle(prefix, mesh, a, b)
            if anchor is not None:
                ax, ay = anchor
                held = np.array(
                    [
                        mesh.node_id(x, y)
                        for y in range(ay, ay + b)
                        for x in range(ax, ax + a)
                    ],
                    dtype=np.int64,
                )
                return Allocation(
                    job_id=request.job_id,
                    nodes=held[: request.size],
                    held=held,
                )
        return None  # no free rectangle right now: the job waits

    @staticmethod
    def _first_free_rectangle(prefix, mesh, a, b):
        """Lowest row-major anchor of a fully-free a x b rectangle."""
        if a > mesh.width or b > mesh.height:
            return None
        # Rectangle sums for every anchor at once.
        sums = (
            prefix[b:, a:]
            - prefix[:-b, a:]
            - prefix[b:, :-a]
            + prefix[:-b, :-a]
        )
        hits = np.argwhere(sums == a * b)
        if len(hits) == 0:
            return None
        ay, ax = hits[0]  # argwhere scans row-major: lowest (y, x)
        return int(ax), int(ay)
