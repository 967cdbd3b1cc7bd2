"""Allocator interface shared by every strategy.

An allocator receives a :class:`Request` and the current
:class:`~repro.mesh.machine.Machine` occupancy and returns an
:class:`Allocation` (the chosen processors, in rank order) or ``None`` when
the request cannot be satisfied.  On Cplant the allocator "must immediately
assign [the job] to a set of processors" and "is a separate module from the
scheduler" (Section 1) -- accordingly, allocators here are pure policy:
they never mutate the machine; the scheduler applies the returned
allocation.

Allocation order matters: the simulator maps pattern rank ``r`` to
``allocation.nodes[r]``, so the order defines the job's virtual ring for
the n-body pattern.  Each strategy documents its order (curve order for
Paging, closeness-to-centre order for MC/Gen-Alg).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.mesh.machine import Machine

__all__ = ["Request", "Allocation", "Allocator"]


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

    Subclasses implement :meth:`allocate`; they must not mutate the machine.
    ``name`` is the registry key (see :mod:`repro.core.registry`).
    """

    name: str = "abstract"

    @abstractmethod
    def allocate(self, request: Request, machine: Machine) -> Allocation | None:
        """Choose processors for ``request`` given current occupancy.

        Returns ``None`` if the request cannot be satisfied (for all the
        paper's noncontiguous strategies that happens exactly when fewer
        than ``request.size`` processors are free).
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _feasible(request: Request, machine: Machine) -> bool:
        return machine.n_free >= request.size

    def _require_2d(self, machine: Machine) -> None:
        """Fail fast with a clear error on meshes this strategy can't place.

        Shell/submesh geometry (MC, contiguous) and some orderings
        (H-indexing, Gen-Alg's axis decomposition) are defined on 2-D
        meshes only; handing them a 3-D machine must raise, not emit
        garbage placements.
        """
        if machine.mesh.n_dims != 2:
            raise ValueError(
                f"allocator {self.name!r} supports only 2-D meshes, got "
                f"shape {tuple(machine.mesh.shape)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
