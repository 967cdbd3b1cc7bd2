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
* ``"random"`` -- the scattered baseline (any machine),
* ``"rack-aware"`` / ``"pod-local"`` / ``"oversub-aware"`` -- the
  hierarchy-aware strategies for the switched Clos fabrics of
  :mod:`repro.mesh.clos`.

:func:`paper_allocators` returns the nine strategies plotted in Figs 7/8,
and :func:`fig11_allocators` the twelve rows of the Fig 11 table.

Strategies are built lazily against whatever machine they are handed.
Each allocator class declares once which kinds of machine it places on
(:attr:`~repro.core.base.Allocator.places_on`: a 2-D mesh, a 3-D mesh, or a
switched fabric) and refuses any other kind with a clear
:class:`ValueError`; :func:`allocator_names` filters the names by that
declaration.  The shell, submesh and Gen-Alg geometry and H-indexing are
2-D constructions, the other curves (``row-major``, ``s-curve`` and
``hilbert`` -- see :mod:`repro.core.curves`) also order 3-D meshes, the
hierarchy strategies need a fabric's switch hierarchy, and ``random``
places anywhere.
"""

from __future__ import annotations

from functools import partial

from repro.core.base import MACHINE_KINDS, Allocator
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

#: Every non-curve strategy by canonical name, in listing order.
_STRATEGIES = {
    "mc": partial(MCAllocator, shaped=True),
    "mc1x1": partial(MCAllocator, shaped=False),
    "gen-alg": GenAlgAllocator,
    "contiguous": FirstFitSubmesh,
    "hybrid": HybridAllocator,
    "random": RandomAllocator,
    "rack-aware": RackAwareAllocator,
    "pod-local": PodLocalAllocator,
    "oversub-aware": OversubAwareAllocator,
}
_ALIASES = {
    "genalg": "gen-alg",
    "first-fit-submesh": "contiguous",
    "rackaware": "rack-aware",
    "podlocal": "pod-local",
    "oversubscription-aware": "oversub-aware",
}
_CURVES = ("s-curve", "hilbert", "h-indexing", "row-major")
_SUFFIX_POLICY = {"ff": "first-fit", "bf": "best-fit", "ss": "sum-of-squares"}


def make_allocator(name: str, **kwargs) -> Allocator:
    """Build an allocator from its registry name (see module docstring).

    Extra keyword arguments pass through to the underlying class, e.g.
    ``make_allocator("s-curve+bf", runs="long")`` for the long-direction
    S-curve ablation or ``make_allocator("hilbert+ff", page_size=1)``.
    """
    lowered = name.strip().lower()
    lowered = _ALIASES.get(lowered, lowered)
    if lowered in _STRATEGIES:
        return _STRATEGIES[lowered](**kwargs)
    curve, _, suffix = lowered.partition("+")
    if curve in _CURVES:
        policy = _SUFFIX_POLICY.get(suffix, suffix) if suffix else "freelist"
        return PagingAllocator(curve_name=curve, policy=policy, **kwargs)
    raise KeyError(f"unknown allocator {name!r}; known: {sorted(allocator_names())}")


def allocator_names(kind: str | None = None) -> list[str]:
    """Canonical registry names; with ``kind``, only those placing on it.

    ``kind`` is one of :data:`~repro.core.base.MACHINE_KINDS`, and a name
    is kept when its allocator declares that kind in ``places_on``.

    >>> allocator_names("3-D mesh")  # doctest: +NORMALIZE_WHITESPACE
    ['random', 's-curve', 's-curve+ff', 's-curve+bf', 's-curve+ss',
     'hilbert', 'hilbert+ff', 'hilbert+bf', 'hilbert+ss',
     'row-major', 'row-major+ff', 'row-major+bf', 'row-major+ss']
    >>> allocator_names("switched fabric")
    ['random', 'rack-aware', 'pod-local', 'oversub-aware']
    """
    names = list(_STRATEGIES)
    for curve in _CURVES:
        names.append(curve)
        names.extend(f"{curve}+{sfx}" for sfx in _SUFFIX_POLICY)
    if kind is None:
        return names
    if kind not in MACHINE_KINDS:
        raise ValueError(f"unknown machine kind {kind!r}; known: {list(MACHINE_KINDS)}")
    return [n for n in names if kind in make_allocator(n).places_on]


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
