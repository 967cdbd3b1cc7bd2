"""Paging / one-dimensional reduction allocators (Section 2.1).

The machine's processors are ordered along a curve; maximal intervals of
free curve ranks act as partially-filled *bins* and a bin-packing heuristic
chooses where each job goes:

* ``freelist`` -- Lo et al.'s Paging: "a sorted free list of pages is
  maintained and incoming jobs are assigned a prefix of the list" (the
  first ``k`` free processors in curve order).
* ``first-fit`` -- "allocates processors to a job from the first bin that
  is large enough".
* ``best-fit`` -- "allocates processors from the bin that will have the
  fewest processors remaining".
* ``sum-of-squares`` -- the Csirik et al. adaptation Leung et al. tried:
  choose the fitting bin that minimises ``sum_s N(s)^2`` over the
  post-allocation bin-size census (extension; the paper reports it "did
  not seem to perform as well").

When no bin can hold the whole job, every heuristic falls back to "the set
of processors with the smallest range of ranks along the curve" -- a
minimum-span window over the sorted free ranks.

Pages larger than one processor (``page_size`` = s > 0, pages of
``2^s x 2^s``) are supported as an extension for the fragmentation
ablation; the paper's experiments all use s = 0 ("to avoid fragmentation,
we consider only s = 0, making each page a single processor").
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.base import Allocation, Allocator, Request
from repro.core.curves import get_curve
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

__all__ = [
    "PagingAllocator",
    "free_runs",
    "select_freelist",
    "select_first_fit",
    "select_best_fit",
    "select_sum_of_squares",
    "select_min_span",
    "POLICIES",
]


# ----------------------------------------------------------------------
# Selection policies (pure functions over a sorted array of free ranks)
# ----------------------------------------------------------------------
def free_runs(free_ranks: np.ndarray) -> list[tuple[int, int]]:
    """Maximal intervals of consecutive ranks, as ``(start_index, length)``.

    ``free_ranks`` must be sorted ascending; indices refer to positions in
    that array (so a run ``(i, L)`` covers ``free_ranks[i : i + L]``).
    """
    starts, lengths = _run_bounds(free_ranks)
    return list(zip(starts.tolist(), lengths.tolist()))


def select_freelist(free_ranks: np.ndarray, need: int) -> np.ndarray:
    """Prefix of the sorted free list (Lo et al.'s Paging)."""
    return free_ranks[:need]


def select_min_span(free_ranks: np.ndarray, need: int) -> np.ndarray:
    """Fallback: the ``need`` free ranks with the smallest rank span.

    Slides a window of ``need`` consecutive entries over the sorted free
    ranks and picks the window minimising ``max - min`` (earliest on ties).
    """
    m = len(free_ranks)
    spans = free_ranks[need - 1 :] - free_ranks[: m - need + 1]
    i = int(np.argmin(spans))  # argmin returns the first minimum
    return free_ranks[i : i + need]


def _run_bounds(free_ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive ranks as ``(start_indices, lengths)``
    arrays (:func:`free_runs` is the list form)."""
    m = len(free_ranks)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    breaks = np.flatnonzero(np.diff(free_ranks) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [m]))
    return starts, ends - starts


def select_first_fit(free_ranks: np.ndarray, need: int) -> np.ndarray:
    """First (lowest-rank) bin large enough; min-span fallback."""
    starts, lengths = _run_bounds(free_ranks)
    fits = lengths >= need
    if not fits.any():
        return select_min_span(free_ranks, need)
    start = int(starts[np.argmax(fits)])
    return free_ranks[start : start + need]


def select_best_fit(free_ranks: np.ndarray, need: int) -> np.ndarray:
    """Bin leaving the fewest processors over; earliest on ties."""
    starts, lengths = _run_bounds(free_ranks)
    fits = lengths >= need
    if not fits.any():
        return select_min_span(free_ranks, need)
    # argmin returns the first minimum, preserving the earliest-run tie rule.
    leftover = np.where(fits, lengths - need, np.iinfo(np.int64).max)
    start = int(starts[np.argmin(leftover)])
    return free_ranks[start : start + need]


def select_sum_of_squares(free_ranks: np.ndarray, need: int) -> np.ndarray:
    """Fitting bin minimising the post-allocation sum of squared bin counts.

    With ``N(s)`` the number of free runs of length ``s`` after carving
    ``need`` ranks out of the chosen run's head, minimise ``sum_s N(s)^2``
    (ties: earliest run).  Analogue of the Sum-of-Squares bin-packing rule.
    """
    runs = free_runs(free_ranks)
    census = Counter(length for _, length in runs)
    best = None
    best_score = None
    for start, length in runs:
        if length < need:
            continue
        census[length] -= 1
        leftover = length - need
        if leftover:
            census[leftover] += 1
        score = sum(c * c for c in census.values() if c)
        if leftover:
            census[leftover] -= 1
        census[length] += 1
        if best_score is None or score < best_score:
            best, best_score = (start, length), score
    if best is None:
        return select_min_span(free_ranks, need)
    return free_ranks[best[0] : best[0] + need]


POLICIES = {
    "freelist": select_freelist,
    "first-fit": select_first_fit,
    "best-fit": select_best_fit,
    "sum-of-squares": select_sum_of_squares,
}

_POLICY_ALIASES = {
    "freelist": "freelist",
    "free-list": "freelist",
    "fl": "freelist",
    "first-fit": "first-fit",
    "firstfit": "first-fit",
    "ff": "first-fit",
    "best-fit": "best-fit",
    "bestfit": "best-fit",
    "bf": "best-fit",
    "sum-of-squares": "sum-of-squares",
    "ss": "sum-of-squares",
}


# ----------------------------------------------------------------------
# Allocator
# ----------------------------------------------------------------------
class PagingAllocator(Allocator):
    """One-dimensional reduction over a curve with a selection policy.

    Parameters
    ----------
    curve_name:
        ``"s-curve"``, ``"hilbert"``, ``"h-indexing"`` or ``"row-major"``.
    policy:
        ``"freelist"``, ``"first-fit"``, ``"best-fit"`` or
        ``"sum-of-squares"`` (aliases ``fl``/``ff``/``bf``/``ss``).
    page_size:
        The s of the 2^s x 2^s pages; 0 (the paper's setting) makes each
        page a single processor.  With s > 0 whole pages are held and the
        mesh dimensions must be divisible by 2^s.
    curve_kwargs:
        Extra arguments for the curve builder (e.g. ``runs="long"`` for the
        long-direction S-curve ablation).
    """

    def __init__(
        self,
        curve_name: str = "hilbert",
        policy: str = "best-fit",
        page_size: int = 0,
        **curve_kwargs,
    ):
        try:
            policy = _POLICY_ALIASES[policy]
        except KeyError:
            raise KeyError(
                f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
            ) from None
        if page_size < 0:
            raise ValueError("page_size must be >= 0")
        self.curve_name = curve_name
        self.policy = policy
        self.page_size = page_size
        self.curve_kwargs = curve_kwargs
        self._select = POLICIES[policy]
        # Registry-style short name ("hilbert+bf"), the paper's "w/BF" style.
        short = {"first-fit": "ff", "best-fit": "bf", "sum-of-squares": "ss"}
        self.name = (
            f"{curve_name}+{short[policy]}" if policy != "freelist" else curve_name
        )
        if page_size:
            self.name += f"@s{page_size}"
        self._mesh_cache: dict[tuple, tuple] = {}

    # -- mesh-specific precomputation -----------------------------------
    def _bind(self, mesh: Mesh):
        key = (tuple(mesh.shape), mesh.torus)
        cached = self._mesh_cache.get(key)
        if cached is not None:
            return cached
        curve = get_curve(self.curve_name, mesh, **self.curve_kwargs)
        if self.page_size == 0:
            page_of = None
            page_nodes = None
        else:
            if mesh.n_dims != 2:
                raise ValueError(
                    "page_size > 0 pages are 2-D submeshes; use s = 0 "
                    f"(the paper's setting) on a {mesh.n_dims}-D mesh"
                )
            side = 1 << self.page_size
            if mesh.width % side or mesh.height % side:
                raise ValueError(
                    f"mesh {mesh.width}x{mesh.height} not divisible by "
                    f"page side {side}"
                )
            page_mesh = Mesh(mesh.width // side, mesh.height // side)
            page_curve = get_curve(self.curve_name, page_mesh, **self.curve_kwargs)
            # page id (by page-curve rank) of each node, and nodes per page
            # ordered by the processor curve within the page.
            px, py = mesh.axis_coords()
            page_of = page_curve.rank[py // side * page_mesh.width + px // side]
            page_nodes = []
            for rank in range(page_mesh.n_nodes):
                members = np.flatnonzero(page_of == rank)
                members = members[np.argsort(curve.rank[members])]
                page_nodes.append(members)
        cached = (curve, page_of, page_nodes)
        self._mesh_cache[key] = cached
        return cached

    # -- allocation ------------------------------------------------------
    def allocate(self, request: Request, machine: Machine) -> Allocation | None:
        if not self._feasible(request, machine):
            return None
        curve, page_of, page_nodes = self._bind(machine.mesh)
        if self.page_size == 0:
            free_ranks = np.sort(curve.rank[machine.free_nodes()])
            chosen = self._select(free_ranks, request.size)
            nodes = curve.order[np.sort(chosen)]
            return Allocation(job_id=request.job_id, nodes=nodes)
        return self._allocate_pages(request, machine, page_of, page_nodes)

    def _allocate_pages(self, request, machine, page_of, page_nodes):
        per_page = len(page_nodes[0])
        need_pages = -(-request.size // per_page)  # ceil division
        free = machine.free_mask
        # A page is free only if every one of its processors is free.
        page_free = np.array([bool(free[m].all()) for m in page_nodes])
        free_page_ranks = np.flatnonzero(page_free)
        if len(free_page_ranks) < need_pages:
            return None  # page fragmentation: free processors but no pages
        chosen = np.sort(self._select(free_page_ranks, need_pages))
        held = np.concatenate([page_nodes[r] for r in chosen])
        nodes = held[: request.size]
        return Allocation(job_id=request.job_id, nodes=nodes, held=held)
