"""Hierarchy-aware allocation strategies for switched (Clos) fabrics.

The paper's allocators optimise Manhattan compactness, which is the right
objective on a mesh where messages cross other jobs' processors.  On a
switched fabric the analogous objective is *hierarchy locality*: keep a
job under as few first-hop switches as possible (rack/leaf/router) and
inside one pod/group, because only traffic that climbs past a shared
switch contends on uplinks.  These strategies read the topology's
:meth:`~repro.mesh.clos.ClosTopology.hierarchy_levels` and therefore
declare switched fabrics only; handing them a mesh raises a clear
:class:`ValueError` (the registry's mesh strategies are the converse).

:class:`RandomAllocator` is the topology-agnostic scattered baseline: on
a mesh it reproduces the "worst-case dispersal" foil of the paper's
Figs 7/8 discussion, and on a Clos it answers the bundled campaign's
headline question -- if random placement matches the locality-aware
strategies on a fat-tree, contiguity has stopped mattering.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FABRIC, MACHINE_KINDS, Allocation, Allocator, Request
from repro.mesh.clos import ClosTopology
from repro.mesh.machine import Machine

__all__ = [
    "RandomAllocator",
    "RackAwareAllocator",
    "PodLocalAllocator",
    "OversubAwareAllocator",
]


class RandomAllocator(Allocator):
    """Uniform random placement over the free processors (any topology).

    Deterministic given the machine state: the draw is seeded from the
    request's job id (plus an optional ``salt``), so repeated runs of a
    trace produce identical placements without threading an RNG through
    the scheduler.  Nodes are returned in draw order, which scatters the
    job's rank ring as thoroughly as its processors.
    """

    name = "random"
    places_on = frozenset(MACHINE_KINDS)

    def __init__(self, salt: int = 0):
        self.salt = int(salt)

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        """Draw ``request.size`` distinct free processors uniformly."""
        free = machine.free_nodes()
        rng = np.random.default_rng(
            np.random.SeedSequence([0x52A11D0, self.salt, request.job_id])
        )
        pick = rng.choice(len(free), size=request.size, replace=False)
        return Allocation(job_id=request.job_id, nodes=free[pick])


class _HierarchyAllocator(Allocator):
    """Shared plumbing: pack whole hierarchy units greedily."""

    places_on = frozenset({FABRIC})

    @staticmethod
    def _pack_units(
        free: np.ndarray, unit_of_free: np.ndarray, order: np.ndarray, size: int
    ) -> np.ndarray:
        """Fill ``size`` hosts unit by unit in ``order`` (ranks stay
        grouped per unit, so the job's virtual ring is locality-ordered)."""
        chosen: list[np.ndarray] = []
        remaining = size
        for unit in order:
            hosts = free[unit_of_free == unit]
            if len(hosts) == 0:
                continue
            take = hosts[: min(remaining, len(hosts))]
            chosen.append(take)
            remaining -= len(take)
            if remaining == 0:
                break
        return np.concatenate(chosen)

    def _unit_order(
        self, counts: np.ndarray, busy: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rack_fill(
        self, request: Request, free: np.ndarray, topology: ClosTopology
    ) -> Allocation:
        """Pack whole racks of ``free`` in :meth:`_unit_order`."""
        _, unit_of = topology.hierarchy_levels()[0]
        unit_of_free = unit_of[free]
        n_units = int(unit_of.max()) + 1
        counts = np.bincount(unit_of_free, minlength=n_units)
        busy = np.bincount(unit_of, minlength=n_units) - counts
        order = self._unit_order(counts, busy)
        nodes = self._pack_units(free, unit_of_free, order, request.size)
        return Allocation(job_id=request.job_id, nodes=nodes)

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        return self._rack_fill(request, machine.free_nodes(), machine.mesh)


class RackAwareAllocator(_HierarchyAllocator):
    """Fewest-racks-first packing (the Clos analogue of MC's shells).

    Racks (lowest hierarchy level: edge switch / leaf / router) are
    filled from the emptiest-in-free-terms down -- largest free count
    first, ties to the lowest rack id -- which minimises the number of
    first-hop switches the job spans and therefore its uplink footprint.
    """

    name = "rack-aware"

    def _unit_order(self, counts: np.ndarray, busy: np.ndarray) -> np.ndarray:
        return np.lexsort((np.arange(len(counts)), -counts))


class PodLocalAllocator(RackAwareAllocator):
    """Best-fit pod selection, then rack-aware packing inside it.

    The pod (highest hierarchy level: fat-tree pod / dragonfly group;
    on a leaf-spine the leaf itself) with the *least* sufficient free
    capacity is chosen -- best fit, to preserve large pods for large
    jobs -- and the job is rack-packed inside it.  Jobs too large for
    any single pod spill to plain rack-aware packing across pods.
    """

    name = "pod-local"

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        """Place inside the tightest pod that fits, else spill."""
        free = machine.free_nodes()
        _, pod_of = machine.mesh.hierarchy_levels()[-1]
        n_pods = int(pod_of.max()) + 1
        pod_free = np.bincount(pod_of[free], minlength=n_pods)
        fits = np.flatnonzero(pod_free >= request.size)
        if len(fits) > 0:
            pod = int(fits[np.argmin(pod_free[fits])])  # best fit, lowest id
            free = free[pod_of[free] == pod]
        return self._rack_fill(request, free, machine.mesh)


class OversubAwareAllocator(_HierarchyAllocator):
    """Quietest-uplinks-first packing for oversubscribed fabrics.

    On an oversubscribed rack every busy host competes for the same
    undersized uplink budget, so the rack order prefers the fewest busy
    hosts first (quietest uplinks), then the largest free count (fewest
    racks spanned), then the lowest id.  On a non-blocking fabric this
    degrades gracefully toward rack-aware packing.
    """

    name = "oversub-aware"

    def _unit_order(self, counts: np.ndarray, busy: np.ndarray) -> np.ndarray:
        return np.lexsort((np.arange(len(counts)), -counts, busy))
