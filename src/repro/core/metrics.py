"""Allocation-quality metrics (Section 4.3 and Figs 1, 9, 11).

* :func:`average_pairwise_hops` -- "average number of communication hops
  between the processors of a job" (Mache & Lo's dispersal metric; x-axis
  of Figs 1 and 9).
* :func:`components` / :func:`n_components` / :func:`is_contiguous` -- the
  contiguity metrics of Fig 11: processors form a component when a
  rectilinear path connects them *through processors assigned to the same
  job*; a job is contiguous when it forms a single component.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mesh.topology import Topology

__all__ = [
    "average_pairwise_hops",
    "total_pairwise_hops",
    "components",
    "n_components",
    "is_contiguous",
]

AnyMesh = Topology


def _circular_pairwise_sum(coords: np.ndarray, extent: int) -> int:
    """Sum over unordered pairs of the wraparound axis distance.

    Coordinates take at most ``extent`` distinct values, so the sum over
    pairs collapses onto the value census ``c``: with ``D[a, b]`` the
    wraparound distance between values ``a`` and ``b``, the ordered-pair
    total is the quadratic form ``c @ D @ c`` -- one closed-form integer
    matmul in O(extent^2), regardless of how many processors are involved.
    """
    census = np.bincount(coords, minlength=extent).astype(np.int64)
    vals = np.arange(extent, dtype=np.int64)
    gap = np.abs(vals[:, None] - vals[None, :])
    dist = np.minimum(gap, extent - gap)
    total = int(census @ dist @ census)
    return total // 2  # every unordered pair was counted once per direction


def total_pairwise_hops(mesh: AnyMesh, nodes) -> int:
    """Sum of Manhattan distances over unordered processor pairs.

    Computed per axis with the sorted-coordinate prefix-sum identity
    ``sum_{i<j} |c_i - c_j| = sum_j (2j - k + 1) * c_(j)`` (O(k log k)),
    which also powers the Gen-Alg inner loop.  Torus axes use a value
    census instead, since the identity does not survive wraparound.
    Switched fabrics (Clos) sum their dense route-length matrix.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if k < 2:
        return 0
    if not getattr(mesh, "is_mesh", True):
        return int(mesh.pairwise_distance(nodes).sum()) // 2
    total = 0
    for coords, extent in zip(mesh.axis_coords(nodes), mesh.shape):
        c = coords.astype(np.int64)
        if mesh.torus:
            total += _circular_pairwise_sum(c, extent)
        else:
            c = np.sort(c)
            j = np.arange(k, dtype=np.int64)
            total += int(np.sum((2 * j - k + 1) * c))
    return total


def average_pairwise_hops(mesh: AnyMesh, nodes) -> float:
    """Mean hop distance over unordered processor pairs (Manhattan on
    meshes, deterministic-route length on Clos fabrics)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if k < 2:
        return 0.0
    return total_pairwise_hops(mesh, nodes) / (k * (k - 1) / 2)


def components(mesh: AnyMesh, nodes) -> list[list[int]]:
    """Connected components of an allocated node set (each sorted).

    Connectivity follows ``mesh.neighbors``: 4-neighbourhoods on 2-D
    meshes, 6-neighbourhoods on 3-D meshes, with wraparound on tori.  On
    switched fabrics hosts never link to each other, so a component is the
    set of allocated hosts under one first-hop switch (rack/leaf/router)
    -- the Clos reading of contiguity.
    """
    if not getattr(mesh, "is_mesh", True):
        return mesh.components(nodes)
    nodes = np.asarray(nodes, dtype=np.int64)
    node_set = set(int(v) for v in nodes)
    if len(node_set) != len(nodes):
        raise ValueError("duplicate nodes")
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in sorted(node_set):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in mesh.neighbors(v):
                if u in node_set and u not in seen:
                    seen.add(u)
                    queue.append(u)
        out.append(sorted(comp))
    return out


def _small_n_components(mesh: AnyMesh, ids: list[int]) -> int:
    """:func:`n_components` for a few processors: a scalar union-find.

    Each node is joined to its forward neighbour along every axis (and
    across the wraparound edge of a torus axis longer than 2) when that
    neighbour is allocated too.  At these sizes a pass of NumPy calls
    costs more than the Python walk.
    """
    parent = {v: v for v in ids}
    if len(parent) != len(ids):
        raise ValueError("duplicate nodes")

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    count = len(ids)
    stride = 1
    for extent in mesh.shape:
        span = stride * extent
        wrap = mesh.torus and extent > 2
        for v in ids:
            if (v // stride) % extent < extent - 1:
                u = v + stride
            elif wrap:
                u = v + stride - span
            else:
                continue
            if u in parent:
                ra, rb = find(v), find(u)
                if ra != rb:
                    parent[rb] = ra
                    count -= 1
        stride = span
    return count


def n_components(mesh: AnyMesh, nodes) -> int:
    """Number of mesh-connected components of the allocation.

    Counted without the BFS of :func:`components`.  Allocations of fewer
    than 64 processors -- most jobs -- take a scalar union-find over
    forward neighbours (:func:`_small_n_components`); larger ones extract
    adjacent same-job node pairs per axis with vectorised id arithmetic
    (including the wraparound edges of a torus) and merge them by
    vectorised min-label propagation, a few O(k)-sized array rounds for k
    allocated processors.  Switched fabrics count distinct first-hop
    switches instead (see :func:`components`).
    """
    if not getattr(mesh, "is_mesh", True):
        return mesh.n_components(nodes)
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if k < 64:
        return _small_n_components(mesh, nodes.tolist())
    occupied = np.zeros(mesh.n_nodes, dtype=bool)
    occupied[nodes] = True
    if int(np.count_nonzero(occupied)) != k:
        raise ValueError("duplicate nodes")

    edges_a: list[np.ndarray] = []
    edges_b: list[np.ndarray] = []
    stride = 1
    for extent in mesh.shape:
        coord = (nodes // stride) % extent
        step = nodes + stride
        forward = coord < extent - 1
        forward &= occupied[np.where(forward, step, 0)]
        edges_a.append(nodes[forward])
        edges_b.append(step[forward])
        if mesh.torus and extent > 2:
            wrap_to = nodes - (extent - 1) * stride
            wrap = coord == extent - 1
            wrap &= occupied[np.where(wrap, wrap_to, 0)]
            edges_a.append(nodes[wrap])
            edges_b.append(wrap_to[wrap])
        stride *= extent

    a = np.concatenate(edges_a)
    b = np.concatenate(edges_b)
    if a.size == 0:
        return k

    # Min-label propagation with pointer jumping: each round pulls the
    # smaller endpoint label across every edge at once, then collapses
    # label chains, so convergence takes O(log k) vectorised rounds
    # instead of a Python loop over edges.
    index = np.empty(mesh.n_nodes, dtype=np.int64)
    index[nodes] = np.arange(k)
    a = index[a]
    b = index[b]
    labels = np.arange(k)
    while True:
        lo = np.minimum(labels[a], labels[b])
        nxt = labels.copy()
        np.minimum.at(nxt, a, lo)
        np.minimum.at(nxt, b, lo)
        while True:
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    return int(np.count_nonzero(labels == np.arange(k)))


def is_contiguous(mesh: AnyMesh, nodes) -> bool:
    """True when the allocation forms a single component (Fig 11's
    "% contiguous").  Note the paper's caveat: a contiguous job may still
    interfere with others because messages are x-y routed."""
    return n_components(mesh, nodes) == 1
