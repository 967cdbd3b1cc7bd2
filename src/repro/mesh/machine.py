"""Processor-occupancy state of a space-shared machine.

The :class:`Machine` is the single source of truth for which processors are
free; allocators read it and the scheduler mutates it through
:meth:`Machine.allocate` / :meth:`Machine.release`.  On Cplant-like systems
processors are *exclusively dedicated* to a job until it terminates
(Section 1 of the paper), so occupancy is a plain boolean partition -- there
is no time-sharing dimension.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.mesh.topology import Mesh

__all__ = ["Machine", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised on inconsistent occupancy transitions (double alloc/free)."""


class Machine:
    """Occupancy bookkeeping for a mesh of exclusively-dedicated processors.

    Parameters
    ----------
    mesh:
        The machine topology.

    Notes
    -----
    ``free_mask`` is exposed as a read-only view so allocators can vectorise
    over it without being able to corrupt the machine state.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._free = np.ones(mesh.n_nodes, dtype=bool)
        # job id occupying each node, -1 when free; used for rendering and
        # for catching cross-job double-frees.
        self._owner = np.full(mesh.n_nodes, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def free_mask(self) -> np.ndarray:
        """Boolean array over node ids, True where the processor is free."""
        view = self._free.view()
        view.flags.writeable = False
        return view

    @property
    def owner(self) -> np.ndarray:
        """Per-node owning job id (-1 if free); read-only view."""
        view = self._owner.view()
        view.flags.writeable = False
        return view

    @property
    def n_free(self) -> int:
        """Number of free processors."""
        return int(self._free.sum())

    @property
    def n_busy(self) -> int:
        """Number of occupied processors."""
        return self.mesh.n_nodes - self.n_free

    def free_nodes(self) -> np.ndarray:
        """Ids of all free processors, ascending."""
        return np.flatnonzero(self._free)

    def busy_nodes(self) -> np.ndarray:
        """Ids of all occupied processors, ascending."""
        return np.flatnonzero(~self._free)

    def is_free(self, node: int) -> bool:
        """True if ``node`` is currently unallocated."""
        return bool(self._free[node])

    def utilization(self) -> float:
        """Fraction of processors currently occupied."""
        return self.n_busy / self.mesh.n_nodes

    # ------------------------------------------------------------------
    # Mutation API
    # ------------------------------------------------------------------
    def allocate(self, nodes: Iterable[int], job_id: int = 0) -> None:
        """Mark ``nodes`` busy on behalf of ``job_id``.

        Raises :class:`AllocationError` if any node is already busy or if
        ``nodes`` contains duplicates.
        """
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return
        if np.any(nodes < 0) or np.any(nodes >= self.mesh.n_nodes):
            raise AllocationError("node id out of range")
        if nodes.size > 1:
            ordered = np.sort(nodes)
            if np.any(ordered[1:] == ordered[:-1]):
                raise AllocationError("duplicate nodes in allocation")
        if not np.all(self._free[nodes]):
            taken = nodes[~self._free[nodes]]
            raise AllocationError(f"nodes already allocated: {taken.tolist()}")
        self._free[nodes] = False
        self._owner[nodes] = job_id

    def release(self, nodes: Iterable[int]) -> None:
        """Mark ``nodes`` free again.

        Raises :class:`AllocationError` if any node is already free.
        """
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return
        if np.any(nodes < 0) or np.any(nodes >= self.mesh.n_nodes):
            raise AllocationError("node id out of range")
        if np.any(self._free[nodes]):
            idle = nodes[self._free[nodes]]
            raise AllocationError(f"nodes already free: {idle.tolist()}")
        self._free[nodes] = True
        self._owner[nodes] = -1

    def reset(self) -> None:
        """Free every processor."""
        self._free[:] = True
        self._owner[:] = -1

    def snapshot(self) -> np.ndarray:
        """Copy of the current free mask (for tests / rollback)."""
        return self._free.copy()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = "x".join(str(n) for n in self.mesh.shape)
        return f"Machine({label}, {self.n_busy}/{self.mesh.n_nodes} busy)"
