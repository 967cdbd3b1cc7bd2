"""Scalar reference routes, written independently of the hop templates.

The simulator declares each route once: a mesh as the directed links
``LinkSpace.links_on_route`` crosses, a Clos fabric as its masked hop
template (``route_segments``), from which the scalar ``route``, the hop
distances and the link-space tallies are all derived.  This module keeps
the per-pair scalar code those definitions replaced, so the tests can
compare the derived forms against routes built another way:

* :func:`route_path` -- vertex path of one message: dimension-ordered on
  meshes and tori (axis by axis, lowest first; a torus leg takes the
  shorter way around, ties positive), up/down on the fabrics (d-mod-k on
  the fat-tree, destination-hashed spine on the leaf-spine, gateway
  routers on the dragonfly);
* :func:`route_links` -- directed link ids along that path, looked up by
  endpoint pair in the topology's link space;
* :func:`route_hop_count` -- the path's length in links;
* :func:`host_distance` -- the fabrics' closed-form hop distances, and
  :func:`total_pairwise_distance` their hop total over unordered host
  pairs (distance-class censuses on the fat-tree and leaf-spine).

Inputs are assumed valid: nothing here checks id ranges.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.mesh.clos import Dragonfly, FatTree, LeafSpine
from repro.network.links import link_space_for

__all__ = [
    "route_path",
    "route_links",
    "route_hop_count",
    "host_distance",
    "total_pairwise_distance",
]


def _axis_steps(src: int, dst: int, extent: int, torus: bool) -> list[int]:
    """Intermediate coordinates stepping from src to dst along one axis."""
    if src == dst:
        return []
    if not torus:
        step = 1 if dst > src else -1
        return list(range(src + step, dst + step, step))
    forward = (dst - src) % extent
    backward = (src - dst) % extent
    step = 1 if forward <= backward else -1
    out = []
    cur = src
    while cur != dst:
        cur = (cur + step) % extent
        out.append(cur)
    return out


def _mesh_route(mesh, src: int, dst: int) -> list[int]:
    cur = list(mesh.coords(src))
    dst_coords = mesh.coords(dst)
    path = [src]
    for axis, extent in enumerate(mesh.shape):
        for c in _axis_steps(cur[axis], dst_coords[axis], extent, mesh.torus):
            cur[axis] = c
            path.append(mesh.node_id(*cur))
    return path


def _fattree_route(ft: FatTree, src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    half = ft.half
    e_a, e_b = src // half, dst // half
    path = [src, ft._edge0 + e_a]
    if e_a != e_b:
        p_a, p_b = e_a // half, e_b // half
        j = dst % half  # upward agg chosen by the dst's host digit
        path.append(ft._agg0 + p_a * half + j)
        if p_a != p_b:
            m = (dst // half) % half  # core chosen by the edge digit
            path.append(ft._core0 + j * half + m)
            path.append(ft._agg0 + p_b * half + j)
        path.append(ft._edge0 + e_b)
    path.append(dst)
    return path


def _leafspine_route(ls: LeafSpine, src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    hpl = ls.hosts_per_leaf
    l_a, l_b = src // hpl, dst // hpl
    if l_a == l_b:
        return [src, ls._leaf0 + l_a, dst]
    spine = ls._spine0 + dst % ls.spines
    return [src, ls._leaf0 + l_a, spine, ls._leaf0 + l_b, dst]


def _dragonfly_route(df: Dragonfly, src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    r_a, r_b = src // df.hosts, dst // df.hosts
    path = [src, df._router0 + r_a]
    if r_a != r_b:
        g_a, g_b = r_a // df.routers, r_b // df.routers
        if g_a == g_b:
            path.append(df._router0 + r_b)
        else:
            gw_a = df._router_vertex(g_a, int(df._gateway(g_a, g_b)))
            gw_b = df._router_vertex(g_b, int(df._gateway(g_b, g_a)))
            if path[-1] != gw_a:
                path.append(gw_a)
            path.append(gw_b)
            if gw_b != df._router0 + r_b:
                path.append(df._router0 + r_b)
    path.append(dst)
    return path


_FABRIC_ROUTES = {
    FatTree: _fattree_route,
    LeafSpine: _leafspine_route,
    Dragonfly: _dragonfly_route,
}


def route_path(topology, src: int, dst: int) -> list[int]:
    """Vertex ids a message from ``src`` to ``dst`` visits, both included."""
    if getattr(topology, "is_mesh", True):
        return _mesh_route(topology, src, dst)
    return _FABRIC_ROUTES[type(topology)](topology, src, dst)


def route_hop_count(topology, src: int, dst: int) -> int:
    """Links crossed by :func:`route_path`."""
    return len(route_path(topology, src, dst)) - 1


@functools.lru_cache(maxsize=16)
def _link_ids(space) -> dict[tuple[int, int], int]:
    """``(from, to) -> link id`` of every directed link of ``space``.

    A 2-wide torus axis carries two links with the same endpoints (its
    positive and negative columns both join the two nodes); the positive
    one comes first in id order and is kept, matching the routes' ties
    going positive.
    """
    ids: dict[tuple[int, int], int] = {}
    for link in range(space.n_links):
        ids.setdefault(space.endpoints(link), link)
    return ids


def route_links(topology, src: int, dst: int) -> list[int]:
    """Directed link ids along :func:`route_path`."""
    ids = _link_ids(link_space_for(topology))
    path = route_path(topology, src, dst)
    return [ids[hop] for hop in zip(path, path[1:])]


def host_distance(topology, a, b) -> np.ndarray:
    """Closed-form hop distance between host-id arrays on a fabric."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if isinstance(topology, FatTree):
        half = topology.half
        hp = topology._hosts_per_pod()
        same_edge = (a // half) == (b // half)
        same_pod = (a // hp) == (b // hp)
        return np.where(
            a == b, 0, np.where(same_edge, 2, np.where(same_pod, 4, 6))
        )
    if isinstance(topology, LeafSpine):
        hpl = topology.hosts_per_leaf
        same_leaf = (a // hpl) == (b // hpl)
        return np.where(a == b, 0, np.where(same_leaf, 2, 4))
    df = topology
    r_a, r_b = a // df.hosts, b // df.hosts
    g_a, g_b = r_a // df.routers, r_b // df.routers
    la, lb = r_a % df.routers, r_b % df.routers
    gw_a = df._gateway(g_a, g_b)
    gw_b = df._gateway(g_b, g_a)
    inter = 3 + (la != gw_a).astype(np.int64) + (lb != gw_b).astype(np.int64)
    return np.where(
        a == b,
        0,
        np.where(r_a == r_b, 2, np.where(g_a == g_b, 3, inter)),
    )


def total_pairwise_distance(topology, nodes) -> int:
    """Hop total over unordered host pairs: a census over the distance
    classes (fat-tree: {2, 4, 6}; leaf-spine: {2, 4}), or the dense
    :func:`host_distance` sum on the dragonfly."""
    nodes = np.asarray(nodes, dtype=np.int64)
    n = len(nodes)
    if n < 2:
        return 0
    if isinstance(topology, Dragonfly):
        return int(host_distance(topology, nodes[:, None], nodes[None, :]).sum()) // 2

    def same_pairs(units, count):
        census = np.bincount(units, minlength=count)
        return int((census * (census - 1) // 2).sum())

    all_pairs = n * (n - 1) // 2
    if isinstance(topology, FatTree):
        half = topology.half
        in_edge = same_pairs(nodes // half, topology.k * half)
        in_pod = same_pairs(nodes // topology._hosts_per_pod(), topology.k)
        return 2 * in_edge + 4 * (in_pod - in_edge) + 6 * (all_pairs - in_pod)
    in_leaf = same_pairs(nodes // topology.hosts_per_leaf, topology.leaves)
    return 2 * in_leaf + 4 * (all_pairs - in_leaf)
