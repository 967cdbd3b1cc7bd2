"""Allocator interface shared by every strategy.

An allocator receives a :class:`Request` and the current
:class:`~repro.mesh.machine.Machine` occupancy and returns an
:class:`Allocation` (the chosen processors, in rank order) or ``None`` when
the request cannot be satisfied.  On Cplant the allocator "must immediately
assign [the job] to a set of processors" and "is a separate module from the
scheduler" (Section 1) -- accordingly, allocators here are pure policy:
they never mutate the machine; the scheduler applies the returned
allocation.

Each strategy declares once, in :attr:`Allocator.places_on`, which kinds
of machine it places on -- a 2-D mesh, a 3-D mesh, or a switched fabric
(see :func:`machine_kind`) -- and :meth:`Allocator.allocate` refuses any
other kind with a :class:`ValueError` before the strategy runs.  The
registry's name lists and the campaign expander read the same
declaration.

Allocation order matters: the simulator maps pattern rank ``r`` to
``allocation.nodes[r]``, so the order defines the job's virtual ring for
the n-body pattern.  Each strategy documents its order (curve order for
Paging, closeness-to-centre order for MC/Gen-Alg).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.mesh.clos import topology_label
from repro.mesh.machine import Machine
from repro.mesh.topology import Topology

__all__ = ["Request", "Allocation", "Allocator", "machine_kind"]
__all__ += ["MESH_2D", "MESH_3D", "FABRIC", "MACHINE_KINDS"]

#: The kinds of machine an allocator can declare it places on.
MESH_2D = "2-D mesh"
MESH_3D = "3-D mesh"
FABRIC = "switched fabric"
MACHINE_KINDS = (MESH_2D, MESH_3D, FABRIC)


def machine_kind(topology: Topology) -> str:
    """The kind of machine ``topology`` is, one of :data:`MACHINE_KINDS`.

    Read from what every topology already carries: ``is_mesh`` tells a
    mesh or torus from a switched fabric, and ``n_dims`` a 2-D mesh from
    a 3-D one.

    >>> from repro.mesh.clos import build_topology
    >>> [machine_kind(build_topology(t)) for t in ("16x22", "8x8x8t", "fattree:k=4")]
    ['2-D mesh', '3-D mesh', 'switched fabric']
    """
    if not topology.is_mesh:
        return FABRIC
    return MESH_2D if topology.n_dims == 2 else MESH_3D


@dataclass(frozen=True)
class Request:
    """A processor request passed from the scheduler to the allocator.

    Attributes
    ----------
    size:
        Number of processors the job needs.
    job_id:
        Identifier used for occupancy bookkeeping and reporting.
    shape:
        Optional ``(a, b)`` submesh shape hint.  Cplant software "does not
        get a user-supplied job shape" (Section 5), so trace jobs carry no
        shape; the MC allocator infers one (and this field lets users of the
        library supply one explicitly, the paper's recommendation for future
        systems).
    pattern_hint:
        Optional communication-pattern name (e.g. ``"all-to-all"``).  Used
        only by :class:`repro.core.hybrid.HybridAllocator`, the paper's
        closing "harness the strengths of different algorithms" proposal.
    """

    size: int
    job_id: int = 0
    shape: tuple[int, int] | None = None
    pattern_hint: str | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"request size must be >= 1, got {self.size}")
        if self.shape is not None:
            a, b = self.shape
            if a < 1 or b < 1:
                raise ValueError(f"invalid shape {self.shape}")


@dataclass
class Allocation:
    """Result of a successful allocation.

    Attributes
    ----------
    job_id:
        The requesting job.
    nodes:
        Processors actually given to the job, in rank order
        (``len(nodes) == request.size``).
    held:
        All processors removed from the free pool.  Equal to ``nodes``
        except for page sizes > 0 in the Paging allocator, where whole
        pages are held and the surplus processors are internal
        fragmentation (Section 2.1 -- the reason the paper fixes s = 0).
    """

    job_id: int
    nodes: np.ndarray
    held: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.held is None:
            self.held = self.nodes
        else:
            self.held = np.asarray(self.held, dtype=np.int64)
        if self.held is not self.nodes and not np.isin(self.nodes, self.held).all():
            raise ValueError("held must contain every allocated node")

    @property
    def size(self) -> int:
        """Number of processors the job actually uses."""
        return len(self.nodes)

    @property
    def fragmentation(self) -> int:
        """Held-but-unused processors (0 unless paging with s > 0)."""
        return len(self.held) - len(self.nodes)


class Allocator(ABC):
    """Base class for allocation strategies.

    Subclasses declare :attr:`places_on` and implement :meth:`_place`;
    they must not mutate the machine.  ``name`` is the registry key (see
    :mod:`repro.core.registry`).
    """

    name: str = "abstract"
    #: The machine kinds (:data:`MACHINE_KINDS`) this strategy places on.
    places_on: frozenset[str] = frozenset()
    #: The topology that last passed :meth:`check_places_on`, so a run of
    #: starts on one machine pays one identity compare each.
    _accepted: Topology | None = None

    def allocate(self, request: Request, machine: Machine) -> Allocation | None:
        """Choose processors for ``request`` given current occupancy.

        Raises :class:`ValueError` if the machine is of a kind the strategy
        does not place on.  Returns ``None`` if the request cannot be
        satisfied: always when fewer than ``request.size`` processors are
        free, and for all the paper's noncontiguous strategies only then.
        """
        if machine.mesh is not self._accepted:
            self.check_places_on(machine.mesh)
        if machine.n_free < request.size:
            return None
        return self._place(request, machine)

    def check_places_on(self, topology: Topology) -> None:
        """Raise :class:`ValueError` unless this strategy places on
        ``topology``'s kind of machine (the one placement refusal)."""
        kind = machine_kind(topology)
        if kind not in self.places_on:
            raise ValueError(
                f"allocator {self.name!r} cannot place on the {kind} "
                f"{topology_label(topology)!r}: it needs a "
                + " or ".join(k for k in MACHINE_KINDS if k in self.places_on)
            )
        self._accepted = topology

    @abstractmethod
    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        """Choose processors on a machine of a declared kind with at least
        ``request.size`` free processors (``None``: no acceptable set)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
