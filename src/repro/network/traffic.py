"""Build per-link traffic loads for a job's (pattern, allocation) pair.

Given a communication pattern cycle (rank-level ``(src, dst)`` pairs) and an
allocation (node ids in rank order), this module produces the quantities the
fluid engine and the analysis layer need:

* the *load vector*: expected flit-traversals of each directed link per
  message sent (averaged over one pattern cycle, x-y routed),
* the *mean message hops*: average Manhattan distance travelled per message
  -- the "average message distance" metric of Fig 10.

Every path follows one load convention: a load vector is the *integer*
number of times the cycle's messages cross each link, times
``message_flits``, divided by the cycle length.  The crossing counts come
from one route scatter over the cycle's pairs weighted by how often each
is sent (:meth:`~repro.patterns.base.Pattern.cached_cycle`), or from the
all-pairs census closed form; either way they are exact, so a link no
route crosses reads exactly 0 and no load is ever negative, whatever
``message_flits`` is.  With integer-valued ``message_flits`` every product
is exact too, which is what keeps the paths bit-identical to each other.
The mean hop count is the exact integer ``sum(counts * distance)`` over
the cycle length.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import total_pairwise_hops
from repro.mesh.topology import Mesh, Topology
from repro.network.links import LinkSpace, link_space_for

__all__ = [
    "pairs_to_nodes",
    "build_load_vector",
    "mean_message_hops",
    "total_message_hops",
    "all_pairs_load_vector",
    "all_pairs_mean_hops",
    "pattern_flow_profile",
]


def pairs_to_nodes(
    nodes: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map rank-level pairs to node-id arrays.

    Parameters
    ----------
    nodes:
        Allocation in rank order (``nodes[r]`` is the processor of rank ``r``).
    pairs:
        Integer array of shape ``(m, 2)`` with rank-level (src, dst) pairs.

    Returns
    -------
    (src_nodes, dst_nodes)
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (m, 2)")
    if np.any(pairs < 0) or np.any(pairs >= len(nodes)):
        raise ValueError("pair rank out of range for allocation")
    return nodes[pairs[:, 0]], nodes[pairs[:, 1]]


def build_load_vector(
    mesh: Topology,
    nodes: np.ndarray,
    pairs: np.ndarray,
    message_flits: float = 1.0,
) -> np.ndarray:
    """Per-directed-link flit load *per message sent* for one pattern cycle.

    The cycle's messages are deterministically routed over the allocation
    (x-y on meshes, up/down on Clos fabrics); each traversal of a link
    contributes ``message_flits`` flits.  The total is divided by the cycle
    length, so multiplying by a job's message rate (messages/sec) yields
    the job's flit flow on each link (flits/sec).

    An empty cycle (single-processor job) yields the zero vector.
    """
    src, dst = pairs_to_nodes(nodes, pairs)
    counts = np.ones(len(src), dtype=np.int64)
    return _profile(mesh, src, dst, counts, message_flits)[0]


def _profile(
    mesh: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    counts: np.ndarray,
    message_flits: float,
) -> tuple[np.ndarray, float, int]:
    """``(load, mean_hops, m)`` of node pairs sent ``counts`` times each."""
    space = link_space_for(mesh)
    m = int(counts.sum())
    if m == 0:
        return np.zeros(space.n_links, dtype=np.float64), 0.0, 0
    crossings, hops = space.route_tally(src, dst, counts)
    crossings *= message_flits
    crossings /= m
    return crossings, hops / m, m


def mean_message_hops(mesh: Topology, nodes: np.ndarray, pairs: np.ndarray) -> float:
    """Average hops per message of a pattern cycle (Fig 10 metric).

    Hop count follows the topology's deterministic routing: Manhattan
    distance on meshes, up/down path length on Clos fabrics.
    """
    src, dst = pairs_to_nodes(nodes, pairs)
    if src.size == 0:
        return 0.0
    return float(np.mean(mesh.distance(src, dst)))


def total_message_hops(mesh: Topology, nodes: np.ndarray, pairs: np.ndarray) -> int:
    """Total hops summed over one pattern cycle."""
    src, dst = pairs_to_nodes(nodes, pairs)
    if src.size == 0:
        return 0
    return int(np.sum(mesh.distance(src, dst)))


def all_pairs_load_vector(
    mesh: Mesh, nodes: np.ndarray, message_flits: float = 1.0
) -> np.ndarray:
    """Closed-form :func:`build_load_vector` for the all-ordered-pairs cycle.

    For dimension-ordered routing on a (non-torus) mesh, the messages of
    the all-to-all cycle crossing a directed link factorise: the positive
    link of axis ``k`` at column ``c`` and row ``r`` is crossed by exactly

        #{src: src_j = r_j for j > k, src_k <= c}
        x #{dst: dst_j = r_j for j < k, dst_k > c}

    ordered pairs (axes above ``k`` still sit at the source coordinate,
    axes below are already corrected to the destination's).  Both factors
    are cumulative sums of the allocation's marginal censuses, so the whole
    load vector costs O(nodes + links) instead of routing ``p * (p - 1)``
    messages.  The crossing counts are exact integers, which is what makes
    this bit-identical to the generic accumulation.

    Tori take the shorter way around per pair, which breaks the
    factorisation; callers must use the generic path there.
    """
    if mesh.torus:
        raise ValueError("all_pairs_load_vector requires a non-torus mesh")
    space = LinkSpace.for_mesh(mesh)
    nodes = np.asarray(nodes, dtype=np.int64)
    p = len(nodes)
    loads = np.zeros(space.n_links, dtype=np.float64)
    if p < 2:
        return loads
    grid = np.zeros(mesh.n_nodes, dtype=np.int64)
    grid[nodes] = 1
    # C-order grid dims are reversed coordinate axes (x fastest), matching
    # the within-block ravel order of LinkSpace.
    grid = grid.reshape(tuple(reversed(mesh.shape)))
    n_dims = space.n_dims
    for axis in range(n_dims):
        cols = space.axis_cols[axis]
        if cols == 0:
            continue
        dim = n_dims - 1 - axis
        high_dims = tuple(range(dim))  # coordinate axes > axis
        low_dims = tuple(range(dim + 1, n_dims))  # coordinate axes < axis
        src_census = grid.sum(axis=low_dims) if low_dims else grid
        dst_census = grid.sum(axis=high_dims) if high_dims else grid
        src_le = np.cumsum(src_census, axis=-1)  # sources with s_k <= c
        dst_le = np.cumsum(dst_census, axis=0)  # destinations with d_k <= c
        src_tot = src_le[..., -1:]
        dst_tot = dst_le[-1:]
        high_shape = src_le.shape[:-1]
        low_shape = dst_le.shape[1:]
        a_shape = high_shape + (cols,) + (1,) * len(low_shape)
        b_shape = (1,) * len(high_shape) + (cols,) + low_shape
        pos = src_le[..., :cols].reshape(a_shape) * (
            (dst_tot - dst_le)[:cols].reshape(b_shape)
        )
        neg = (src_tot - src_le)[..., :cols].reshape(a_shape) * (
            dst_le[:cols].reshape(b_shape)
        )
        off_pos, off_neg = space.axis_offsets[axis]
        block = space.axis_block[axis]
        loads[off_pos : off_pos + block] = pos.reshape(-1)
        loads[off_neg : off_neg + block] = neg.reshape(-1)
    loads *= message_flits
    loads /= p * (p - 1)
    return loads


def all_pairs_mean_hops(mesh: Mesh, nodes: np.ndarray) -> float:
    """Mean Manhattan hops over the all-ordered-pairs cycle.

    Identical to ``mean_message_hops`` on the materialised cycle: the hop
    total is an exact integer, so ``2 * total / (p * (p - 1))`` performs
    the same IEEE division ``np.mean`` would.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    p = len(nodes)
    if p < 2:
        return 0.0
    return float(2 * total_pairwise_hops(mesh, nodes)) / (p * (p - 1))


def pattern_flow_profile(
    mesh: Topology,
    pattern,
    nodes: np.ndarray,
    message_flits: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float, int]:
    """``(load_vector, mean_hops, cycle_length)`` of one job's traffic.

    The simulator's per-start entry point: uniform all-pairs patterns on
    plain meshes take the closed-form census path (the factorisation is a
    mesh identity, so Clos fabrics fall through to the generic
    accumulation), other deterministic patterns route their cached
    weighted cycle (one row per pair with its message count), and
    stochastic patterns draw a fresh cycle from ``rng``.  All the paths
    count crossings exactly, so they are bit-identical to
    :func:`build_load_vector` and :func:`mean_message_hops` on the full
    cycle.

    For a uniform all-pairs pattern on any topology the mean hops is the
    exact integer hop total over all ordered pairs divided by their
    count: the same IEEE quotient as
    :func:`~repro.core.metrics.average_pairwise_hops` (``T / (p(p-1)/2)``
    for the unordered total ``T``), which the simulator therefore reuses.
    """
    p = len(nodes)
    if getattr(pattern, "uniform_all_pairs", False) and mesh.is_mesh and not mesh.torus:
        if p < 2:
            space = link_space_for(mesh)
            return np.zeros(space.n_links, dtype=np.float64), 0.0, 0
        return (
            all_pairs_load_vector(mesh, nodes, message_flits),
            all_pairs_mean_hops(mesh, nodes),
            p * (p - 1),
        )
    if getattr(pattern, "deterministic_cycle", False):
        # Ranks were checked against [0, p) when the form was cached.
        pairs, counts = pattern.cached_cycle(p)
        nodes = np.asarray(nodes, dtype=np.int64)
        src, dst = nodes[pairs[:, 0]], nodes[pairs[:, 1]]
    else:
        src, dst = pairs_to_nodes(nodes, pattern.cycle(p, rng))
        counts = np.ones(len(src), dtype=np.int64)
    return _profile(mesh, src, dst, counts, message_flits)
