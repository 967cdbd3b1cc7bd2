"""By-name construction of allocators.

Names follow the paper's labels:

* curve strategies: ``"s-curve"``, ``"hilbert"``, ``"h-indexing"``,
  ``"row-major"`` -- plain name means the sorted-free-list Paging policy;
  suffix ``+ff`` / ``+bf`` / ``+ss`` selects First Fit / Best Fit /
  Sum-of-Squares bin selection (e.g. ``"hilbert+bf"``),
* ``"mc"`` and ``"mc1x1"`` -- the shell allocators,
* ``"gen-alg"`` -- Krumke et al.'s algorithm,
* ``"contiguous"`` -- the first-fit-submesh convex baseline (Section 2's
  motivation),
* ``"hybrid"`` -- the pattern-dispatching strategy of Section 5's
  discussion,
* ``"random"`` -- the scattered baseline (any topology),
* ``"rack-aware"`` / ``"pod-local"`` / ``"oversub-aware"`` -- the
  hierarchy-aware strategies for the switched Clos fabrics of
  :mod:`repro.mesh.clos`; they raise on meshes, and
  :func:`allocator_names_clos` lists what places on a Clos machine.

:func:`paper_allocators` returns the nine strategies plotted in Figs 7/8,
and :func:`fig11_allocators` the twelve rows of the Fig 11 table.

Strategies are built lazily against whatever mesh the machine carries, and
the curve strategies backed by a 3-D ordering (``row-major``, ``s-curve``
and ``hilbert`` -- see :mod:`repro.core.curves`) also place jobs on 3-D
:class:`~repro.mesh.topology.Mesh` machines; :func:`allocator_names_3d`
lists them.  Every other strategy raises a clear :class:`ValueError` when
handed a 3-D mesh (shell/submesh geometry and H-indexing are 2-D
constructions).
"""

from __future__ import annotations

from repro.core.base import Allocator
from repro.core.contiguous import FirstFitSubmesh
from repro.core.genalg import GenAlgAllocator
from repro.core.hierarchy import (
    OversubAwareAllocator,
    PodLocalAllocator,
    RackAwareAllocator,
    RandomAllocator,
)
from repro.core.hybrid import HybridAllocator
from repro.core.mc import MCAllocator
from repro.core.paging import PagingAllocator

__all__ = [
    "make_allocator",
    "allocator_names",
    "allocator_names_3d",
    "allocator_names_clos",
    "paper_allocators",
    "fig11_allocators",
    "PAPER_ALLOCATORS",
]

#: The nine strategies of Figs 7/8, in the paper's legend order.
PAPER_ALLOCATORS = (
    "mc",
    "mc1x1",
    "gen-alg",
    "s-curve",
    "s-curve+bf",
    "hilbert",
    "hilbert+bf",
    "h-indexing",
    "h-indexing+bf",
)

_CURVES = ("s-curve", "hilbert", "h-indexing", "row-major")
#: Curve strategies with a 3-D ordering, in 2-D legend order.
_CURVES_3D = ("s-curve", "hilbert", "row-major")
_SUFFIX_POLICY = {"ff": "first-fit", "bf": "best-fit", "ss": "sum-of-squares"}


def make_allocator(name: str, **kwargs) -> Allocator:
    """Build an allocator from its registry name (see module docstring).

    Extra keyword arguments pass through to the underlying class, e.g.
    ``make_allocator("s-curve+bf", runs="long")`` for the long-direction
    S-curve ablation or ``make_allocator("hilbert+ff", page_size=1)``.
    """
    lowered = name.strip().lower()
    if lowered == "mc":
        return MCAllocator(shaped=True, **kwargs)
    if lowered == "mc1x1":
        return MCAllocator(shaped=False, **kwargs)
    if lowered in ("gen-alg", "genalg"):
        return GenAlgAllocator(**kwargs)
    if lowered in ("contiguous", "first-fit-submesh"):
        return FirstFitSubmesh(**kwargs)
    if lowered == "hybrid":
        return HybridAllocator(**kwargs)
    if lowered == "random":
        return RandomAllocator(**kwargs)
    if lowered in ("rack-aware", "rackaware"):
        return RackAwareAllocator(**kwargs)
    if lowered in ("pod-local", "podlocal"):
        return PodLocalAllocator(**kwargs)
    if lowered in ("oversub-aware", "oversubscription-aware"):
        return OversubAwareAllocator(**kwargs)
    curve, _, suffix = lowered.partition("+")
    if curve in _CURVES:
        if suffix == "":
            policy = "freelist"
        else:
            policy = _SUFFIX_POLICY.get(suffix, suffix)
        return PagingAllocator(curve_name=curve, policy=policy, **kwargs)
    known = sorted(set(allocator_names()) | set(allocator_names_clos()))
    raise KeyError(f"unknown allocator {name!r}; known: {known}")


def allocator_names() -> list[str]:
    """All canonical names that place on 2-D meshes.

    ``random`` is topology-agnostic and appears here, in
    :func:`allocator_names_3d`, and in :func:`allocator_names_clos`; the
    hierarchy strategies are Clos-only and listed by the latter.
    """
    names = ["mc", "mc1x1", "gen-alg", "contiguous", "hybrid", "random"]
    for curve in _CURVES:
        names.append(curve)
        names.extend(f"{curve}+{sfx}" for sfx in _SUFFIX_POLICY)
    return names


def allocator_names_3d() -> list[str]:
    """Canonical names of the strategies that also place on 3-D meshes."""
    names = ["random"]
    for curve in _CURVES_3D:
        names.append(curve)
        names.extend(f"{curve}+{sfx}" for sfx in _SUFFIX_POLICY)
    return names


def allocator_names_clos() -> list[str]:
    """Canonical names of the strategies that place on switched fabrics.

    The hierarchy-aware strategies need
    :meth:`~repro.mesh.clos.ClosTopology.hierarchy_levels` and raise on
    meshes; ``random`` places anywhere.
    """
    return ["random", "rack-aware", "pod-local", "oversub-aware"]


def paper_allocators() -> list[Allocator]:
    """The nine strategies of Figs 7 and 8.

    MC, MC1x1, Gen-Alg, and {S-curve, Hilbert, H-indexing} with sorted
    free list and with Best Fit.  (First Fit results are described in the
    text but omitted from the paper's graphs.)
    """
    return [make_allocator(n) for n in PAPER_ALLOCATORS]


def fig11_allocators() -> list[Allocator]:
    """The twelve strategies of the Fig 11 contiguity table."""
    names = [
        "s-curve+bf",
        "hilbert+bf",
        "hilbert+ff",
        "h-indexing+bf",
        "s-curve+ff",
        "h-indexing+ff",
        "mc",
        "mc1x1",
        "s-curve",
        "h-indexing",
        "gen-alg",
        "hilbert",
    ]
    return [make_allocator(n) for n in names]
