"""Clos-family switched fabrics: fat-tree, leaf-spine, dragonfly.

The paper's machines route messages *through other jobs' processors* on a
2-D mesh, which is why allocation contiguity matters there.  Datacenter
fabrics are switched: hosts hang off leaf/edge switches and messages climb
a hierarchy instead of crossing neighbouring hosts.  These topologies let
the same scheduler/allocator/fluid-network stack ask the ROADMAP's
headline question -- does contiguity still matter when the network is a
Clos? -- without changing any engine code.

All three classes implement the :class:`~repro.mesh.topology.Topology`
protocol.  Hosts (allocatable processors) carry dense ids ``[0, n_nodes)``;
switches are extra vertices ``[n_nodes, n_vertices)``.  Routing is the
deterministic destination-based up/down scheme (d-mod-k on the fat-tree,
destination-hashed spine on the leaf-spine, fixed gateway routers on the
dragonfly), so every (src, dst) host pair maps to exactly one vertex path
-- the switched analogue of the mesh's deterministic x-y routing, which is
what keeps the fluid engine's load accounting closed over topologies.

Each fabric declares that route once, as a masked hop template
(:meth:`ClosTopology.route_segments`); the scalar route, the hop
distances and the link loads and hop totals of
:class:`~repro.network.links.GraphLinkSpace` are all read off it.

Construction from strings is handled by :func:`build_topology`
(``"fattree:k=8"``, ``"leafspine:40x16"``, ``"dragonfly:9x4x2"``, or a
plain mesh string like ``"16x22"`` / ``"8x8x8t"``); :func:`topology_label`
is its inverse, producing the canonical label serialized into specs and
campaign coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.topology import Mesh, Topology, check_ids, parse_mesh_string

__all__ = [
    "ClosTopology",
    "FatTree",
    "LeafSpine",
    "Dragonfly",
    "build_topology",
    "topology_label",
]


@dataclass(frozen=True)
class ClosTopology:
    """Shared surface of the switched (switch-vertex) topologies.

    Subclasses define the vertex layout (:attr:`n_nodes`, ``n_vertices``),
    adjacency (:meth:`neighbors`), the host hierarchy
    (:meth:`hierarchy_levels`), and their deterministic route, declared
    once as a masked hop template (:meth:`route_segments`).  The base
    class derives the rest of the protocol from that template: the scalar
    :meth:`route`, broadcastable :meth:`distance`, dense
    :meth:`pairwise_distance`, component counting by lowest-level unit,
    and a cached :class:`~repro.network.links.GraphLinkSpace`.
    """

    #: Switched fabrics have no wraparound axes and no mesh closed forms.
    is_mesh = False
    torus = False

    # -- subclass obligations ------------------------------------------
    @property
    def n_nodes(self) -> int:  # pragma: no cover - abstract
        """Number of allocatable hosts."""
        raise NotImplementedError

    @property
    def n_vertices(self) -> int:  # pragma: no cover - abstract
        """Hosts plus switches."""
        raise NotImplementedError

    @property
    def label(self) -> str:  # pragma: no cover - abstract
        """Canonical ``kind:params`` string (parseable by build_topology)."""
        raise NotImplementedError

    def hierarchy_levels(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Host grouping levels, smallest unit first.

        Each entry is ``(name, unit_of_host)`` with ``unit_of_host`` an
        int array over host ids.  Level 0 is the rack-equivalent (edge
        switch / leaf / router) used for component counting; the last
        level is the pod-equivalent used by the pod-local allocator.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def neighbors(self, node: int) -> list[int]:  # pragma: no cover - abstract
        """Vertices sharing a link with ``node``."""
        raise NotImplementedError

    def route_segments(
        self, src: np.ndarray, dst: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The fabric's route: ``(from_vertex, to_vertex, active_mask)`` hops.

        Every message's route is the masked subsequence of a fixed, short
        hop template (at most 6 hops on these fabrics), evaluated for
        broadcastable host-id arrays without validation.  It is the only
        route definition: everything else below reads it, and
        :class:`~repro.network.links.GraphLinkSpace` accumulates a whole
        batch of messages with one ``np.add.at`` per template hop.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    # -- protocol derived from the hop template --------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Flat ``(n_nodes,)`` extent tuple (serialisation surface)."""
        return (self.n_nodes,)

    @property
    def n_dims(self) -> int:
        """Switched fabrics serialise as a flat 1-extent shape."""
        return 1

    def all_nodes(self) -> np.ndarray:
        """Array of every host id."""
        return np.arange(self.n_nodes)

    def _label(self) -> str:
        """Name used in error messages (the canonical label)."""
        return self.label

    def route(self, src: int, dst: int) -> list[int]:
        """Vertex path between hosts (endpoints included): ``src``, then
        the ``to`` vertex of each active template hop."""
        ends = np.asarray([src, dst], dtype=np.int64)
        check_ids(self, ends)
        hops = self.route_segments(ends[:1], ends[1:])
        return [int(src)] + [int(v[0]) for _, v, mask in hops if mask[0]]

    def distance(self, a, b):
        """Hop count of the deterministic route between host ids
        (broadcasts): the number of active template hops."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        check_ids(self, a, b)
        (_, _, first), *rest = self.route_segments(a, b)
        dist = first.astype(np.int64)
        for _, _, mask in rest:
            dist += mask
        return int(dist) if dist.ndim == 0 else dist

    def pairwise_distance(self, nodes) -> np.ndarray:
        """Dense ``(k, k)`` matrix of hop distances between ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.distance(nodes[:, None], nodes[None, :])

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when two vertices share a link."""
        return b in self.neighbors(a)

    # -- component metrics (the Clos reading of "contiguity") ----------
    def _unit_of(self, nodes: np.ndarray) -> np.ndarray:
        name, unit = self.hierarchy_levels()[0]
        return unit[nodes]

    def components(self, nodes) -> list[list[int]]:
        """Hosts grouped by lowest-level unit (rack/leaf/router), sorted.

        On a switched fabric two hosts are "connected" when their traffic
        never climbs past their shared first-hop switch; a job is
        contiguous when it fits under one such switch.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        check_ids(self, nodes)
        if len(set(nodes.tolist())) != len(nodes):
            raise ValueError("duplicate nodes")
        groups: dict[int, list[int]] = {}
        for node, unit in zip(nodes.tolist(), self._unit_of(nodes).tolist()):
            groups.setdefault(unit, []).append(node)
        return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    def n_components(self, nodes) -> int:
        """Number of lowest-level units the allocation spans."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return 0
        check_ids(self, nodes)
        units = self._unit_of(nodes)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        return int(len(np.unique(units)))

    def link_space(self):
        """Cached :class:`~repro.network.links.GraphLinkSpace` (lazy import
        -- the network package depends on mesh, not vice versa)."""
        space = getattr(self, "_link_space", None)
        if space is None:
            from repro.network.links import GraphLinkSpace

            space = GraphLinkSpace(self)
            object.__setattr__(self, "_link_space", space)
        return space

    def _cached(self, key: str, build):
        value = getattr(self, key, None)
        if value is None:
            value = build()
            object.__setattr__(self, key, value)
        return value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label}, {self.n_nodes} hosts)"


@dataclass(frozen=True)
class FatTree(ClosTopology):
    """A k-ary fat-tree (Al-Fares et al.): k pods of k/2 edge and k/2
    aggregation switches, ``(k/2)^2`` core switches, ``k^3/4`` hosts.

    Vertex ids: hosts first, then edge switches, aggregation switches,
    and core switches.  Routing is destination-based d-mod-k up/down: the
    upward aggregation switch is chosen by ``dst % (k/2)`` and the core by
    the next destination digit, so each (src, dst) pair uses exactly one
    of the equal-cost paths and the load accounting stays deterministic.
    Host-pair distances are 0 (self), 2 (same edge), 4 (same pod), or 6.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"fat-tree arity must be even and >= 2, got {self.k}")

    @property
    def half(self) -> int:
        """k/2: hosts per edge, edges per pod, uplinks per switch."""
        return self.k // 2

    @property
    def n_nodes(self) -> int:
        """k^3/4 hosts."""
        return self.k * self.half * self.half

    @property
    def n_pods(self) -> int:
        """Number of pods (= k)."""
        return self.k

    @property
    def n_vertices(self) -> int:
        """Hosts + k^2/2 edges + k^2/2 aggs + (k/2)^2 cores."""
        return self.n_nodes + 2 * self.k * self.half + self.half * self.half

    @property
    def _edge0(self) -> int:
        return self.n_nodes

    @property
    def _agg0(self) -> int:
        return self.n_nodes + self.k * self.half

    @property
    def _core0(self) -> int:
        return self.n_nodes + 2 * self.k * self.half

    @property
    def label(self) -> str:
        """Canonical ``fattree:k=<k>`` string."""
        return f"fattree:k={self.k}"

    # -- structure -----------------------------------------------------
    def _hosts_per_pod(self) -> int:
        return self.half * self.half

    def hierarchy_levels(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(("edge", ...), ("pod", ...))`` host groupings."""

        def build():
            hosts = np.arange(self.n_nodes)
            return (
                ("edge", hosts // self.half),
                ("pod", hosts // self._hosts_per_pod()),
            )

        return self._cached("_levels", build)

    def neighbors(self, node: int) -> list[int]:
        """Adjacency over hosts and switches."""
        half, k = self.half, self.k
        if not 0 <= node < self.n_vertices:
            raise ValueError(f"vertex id out of range for {self.label}")
        if node < self.n_nodes:  # host -> its edge switch
            return [self._edge0 + node // half]
        if node < self._agg0:  # edge switch
            e = node - self._edge0
            pod = e // half
            hosts = list(range(e * half, (e + 1) * half))
            aggs = [self._agg0 + pod * half + j for j in range(half)]
            return hosts + aggs
        if node < self._core0:  # aggregation switch
            a = node - self._agg0
            pod, j = a // half, a % half
            edges = [self._edge0 + pod * half + i for i in range(half)]
            cores = [self._core0 + j * half + m for m in range(half)]
            return edges + cores
        c = node - self._core0  # core switch
        j = c // half
        return [self._agg0 + p * half + j for p in range(k)]

    # -- routing -------------------------------------------------------
    def route_segments(self, src, dst):
        """Masked 6-hop template of the d-mod-k route (see base class)."""
        half = self.half
        e_a, e_b = src // half, dst // half
        p_a, p_b = e_a // half, e_b // half
        j = dst % half  # upward agg chosen by the dst's host digit
        edge_a = self._edge0 + e_a
        edge_b = self._edge0 + e_b
        agg_a = self._agg0 + p_a * half + j
        agg_b = self._agg0 + p_b * half + j
        core = self._core0 + j * half + e_b % half  # core by the edge digit
        m_any = src != dst
        m_edge = m_any & (e_a != e_b)
        m_pod = m_edge & (p_a != p_b)
        down_from = np.where(m_pod, agg_b, agg_a)
        return [
            (src, edge_a, m_any),
            (edge_a, agg_a, m_edge),
            (agg_a, core, m_pod),
            (core, agg_b, m_pod),
            (down_from, edge_b, m_edge),
            (edge_b, dst, m_any),
        ]


@dataclass(frozen=True)
class LeafSpine(ClosTopology):
    """A two-tier leaf-spine fabric.

    ``leaves`` leaf switches each connect to all ``spines`` spine switches
    and to ``spines * oversubscription`` hosts, so ``oversubscription`` is
    the classic downlink:uplink ratio (1.0 = non-blocking, 3.0 = a 3:1
    oversubscribed rack).  Messages hash onto a spine by destination id;
    distances are 0 (self), 2 (same leaf), or 4.
    """

    leaves: int
    spines: int
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.leaves < 1 or self.spines < 1:
            raise ValueError(
                f"leaf-spine needs >= 1 leaves and spines, got "
                f"{self.leaves}x{self.spines}"
            )
        hosts = self.spines * self.oversubscription
        if self.oversubscription <= 0 or abs(hosts - round(hosts)) > 1e-9:
            raise ValueError(
                f"oversubscription {self.oversubscription!r} must be positive "
                f"and make spines * oversubscription a whole host count"
            )

    @property
    def hosts_per_leaf(self) -> int:
        """Downlinks per leaf: ``spines * oversubscription``."""
        return int(round(self.spines * self.oversubscription))

    @property
    def n_nodes(self) -> int:
        """Total hosts."""
        return self.leaves * self.hosts_per_leaf

    @property
    def n_vertices(self) -> int:
        """Hosts + leaves + spines."""
        return self.n_nodes + self.leaves + self.spines

    @property
    def _leaf0(self) -> int:
        return self.n_nodes

    @property
    def _spine0(self) -> int:
        return self.n_nodes + self.leaves

    @property
    def label(self) -> str:
        """``leafspine:LxS`` (plus ``,oversub=`` when oversubscribed)."""
        if self.oversubscription == 1.0:
            return f"leafspine:{self.leaves}x{self.spines}"
        return (
            f"leafspine:leaves={self.leaves},spines={self.spines},"
            f"oversub={self.oversubscription:g}"
        )

    def hierarchy_levels(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Single ``("leaf", ...)`` grouping (a leaf is rack and pod)."""

        def build():
            hosts = np.arange(self.n_nodes)
            return (("leaf", hosts // self.hosts_per_leaf),)

        return self._cached("_levels", build)

    def neighbors(self, node: int) -> list[int]:
        """Adjacency over hosts, leaves and spines."""
        hpl = self.hosts_per_leaf
        if not 0 <= node < self.n_vertices:
            raise ValueError(f"vertex id out of range for {self.label}")
        if node < self.n_nodes:  # host -> its leaf
            return [self._leaf0 + node // hpl]
        if node < self._spine0:  # leaf -> hosts + all spines
            leaf = node - self._leaf0
            hosts = list(range(leaf * hpl, (leaf + 1) * hpl))
            return hosts + [self._spine0 + s for s in range(self.spines)]
        return [self._leaf0 + l for l in range(self.leaves)]  # spine

    def route_segments(self, src, dst):
        """Masked 4-hop template of the up/down route."""
        hpl = self.hosts_per_leaf
        l_a, l_b = src // hpl, dst // hpl
        leaf_a = self._leaf0 + l_a
        leaf_b = self._leaf0 + l_b
        spine = self._spine0 + dst % self.spines
        m_any = src != dst
        m_leaf = m_any & (l_a != l_b)
        return [
            (src, leaf_a, m_any),
            (leaf_a, spine, m_leaf),
            (spine, leaf_b, m_leaf),
            (leaf_b, dst, m_any),
        ]


@dataclass(frozen=True)
class Dragonfly(ClosTopology):
    """A canonical dragonfly (Kim et al.): ``groups`` groups of
    ``routers`` routers with ``hosts`` hosts each; routers within a group
    form a complete graph and each ordered group pair shares one global
    link between fixed gateway routers.

    Minimal routing is host -> router -> (gateway -> gateway) -> router ->
    host, so host-pair distances are 0, 2 (same router), 3 (same group),
    and 3-5 across groups depending on whether either endpoint's router is
    the gateway.
    """

    groups: int
    routers: int
    hosts: int

    def __post_init__(self) -> None:
        if min(self.groups, self.routers, self.hosts) < 1:
            raise ValueError(
                f"dragonfly needs positive groups/routers/hosts, got "
                f"{self.groups}x{self.routers}x{self.hosts}"
            )

    @property
    def n_nodes(self) -> int:
        """Total hosts."""
        return self.groups * self.routers * self.hosts

    @property
    def n_vertices(self) -> int:
        """Hosts + routers."""
        return self.n_nodes + self.groups * self.routers

    @property
    def _router0(self) -> int:
        return self.n_nodes

    @property
    def label(self) -> str:
        """``dragonfly:GxAxH`` (groups x routers x hosts)."""
        return f"dragonfly:{self.groups}x{self.routers}x{self.hosts}"

    def hierarchy_levels(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(("router", ...), ("group", ...))`` host groupings."""

        def build():
            ids = np.arange(self.n_nodes)
            return (
                ("router", ids // self.hosts),
                ("group", ids // (self.routers * self.hosts)),
            )

        return self._cached("_levels", build)

    def _gateway(self, g_src, g_dst):
        """Local index of ``g_src``'s gateway router toward ``g_dst``.

        Global links are dealt round-robin: group ``i``'s link toward
        group ``j`` lands on router ``((j if j < i else j - 1) % routers)``,
        which spreads the ``groups - 1`` global links evenly over the
        group's routers and is symmetric by construction (the i->j and
        j->i assignments name the two ends of the same physical link).
        """
        idx = np.where(g_dst < g_src, g_dst, g_dst - 1)
        return idx % self.routers

    def _router_vertex(self, g, r):
        return self._router0 + g * self.routers + r

    def neighbors(self, node: int) -> list[int]:
        """Adjacency over hosts and routers (intra-group + global links)."""
        if not 0 <= node < self.n_vertices:
            raise ValueError(f"vertex id out of range for {self.label}")
        if node < self.n_nodes:  # host -> its router
            return [self._router0 + node // self.hosts]
        ridx = node - self._router0
        g, r = ridx // self.routers, ridx % self.routers
        hosts = list(range((g * self.routers + r) * self.hosts,
                           (g * self.routers + r + 1) * self.hosts))
        local = [
            self._router_vertex(g, o) for o in range(self.routers) if o != r
        ]
        peers = []
        for j in range(self.groups):
            if j == g:
                continue
            if int(self._gateway(g, j)) == r:
                peers.append(self._router_vertex(j, int(self._gateway(j, g))))
        return hosts + local + peers

    def route_segments(self, src, dst):
        """Masked 6-hop template of the minimal route."""
        r_a, r_b = src // self.hosts, dst // self.hosts
        g_a, g_b = r_a // self.routers, r_b // self.routers
        la, lb = r_a % self.routers, r_b % self.routers
        ra_v = self._router0 + r_a
        rb_v = self._router0 + r_b
        gw_a = self._router0 + g_a * self.routers + self._gateway(g_a, g_b)
        gw_b = self._router0 + g_b * self.routers + self._gateway(g_b, g_a)
        m_any = src != dst
        m_router = m_any & (r_a != r_b)
        m_group = m_router & (g_a != g_b)
        m_intra = m_router & (g_a == g_b)
        m_up = m_group & (la != self._gateway(g_a, g_b))
        m_down = m_group & (lb != self._gateway(g_b, g_a))
        return [
            (src, ra_v, m_any),
            (ra_v, rb_v, m_intra),
            (ra_v, gw_a, m_up),
            (gw_a, gw_b, m_group),
            (gw_b, rb_v, m_down),
            (rb_v, dst, m_any),
        ]


# ----------------------------------------------------------------------
# String construction / canonical labels
# ----------------------------------------------------------------------
def _parse_params(rest: str, keys: dict[str, str]) -> dict[str, str]:
    """Parse ``a=1,b=2`` with alias normalisation."""
    out: dict[str, str] = {}
    for item in rest.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in keys:
            raise ValueError(
                f"bad topology parameter {item!r}; known: {sorted(set(keys.values()))}"
            )
        out[keys[name]] = value.strip()
    return out


def build_topology(text: str) -> Topology:
    """Build a topology from its canonical string.

    Mesh strings are extents joined by ``x`` with an optional trailing
    ``t`` for torus (``"16x22"``, ``"8x8x8t"``).  Switched fabrics are
    ``kind:params``:

    * ``"fattree:k=8"`` (or ``"fattree:8"``),
    * ``"leafspine:40x16"`` (leaves x spines) or
      ``"leafspine:leaves=40,spines=16,oversub=3"``,
    * ``"dragonfly:9x4x2"`` (groups x routers x hosts) or
      ``"dragonfly:groups=9,routers=4,hosts=2"``.
    """
    text = str(text).strip().lower()
    if not text:
        raise ValueError("empty topology string")
    if ":" not in text:
        return parse_mesh_string(text)
    kind, _, rest = text.partition(":")
    kind = kind.replace("-", "").replace("_", "")
    rest = rest.strip()
    if kind == "fattree":
        value = rest[2:] if rest.startswith("k=") else rest
        try:
            return FatTree(int(value))
        except ValueError as exc:
            raise ValueError(f"cannot parse fat-tree {text!r}: {exc}") from None
    if kind == "leafspine":
        if "=" in rest:
            params = _parse_params(
                rest,
                {
                    "leaves": "leaves",
                    "spines": "spines",
                    "oversub": "oversub",
                    "oversubscription": "oversub",
                },
            )
            try:
                return LeafSpine(
                    int(params["leaves"]),
                    int(params["spines"]),
                    float(params.get("oversub", 1.0)),
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"cannot parse leaf-spine {text!r}: {exc}"
                ) from None
        parts = rest.split("x")
        if len(parts) != 2:
            raise ValueError(
                f"leaf-spine wants 'LxS' or 'leaves=,spines=[,oversub=]', got {text!r}"
            )
        return LeafSpine(int(parts[0]), int(parts[1]))
    if kind == "dragonfly":
        if "=" in rest:
            params = _parse_params(
                rest,
                {"groups": "groups", "g": "groups", "routers": "routers",
                 "a": "routers", "hosts": "hosts", "h": "hosts"},
            )
            try:
                return Dragonfly(
                    int(params["groups"]), int(params["routers"]), int(params["hosts"])
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"cannot parse dragonfly {text!r}: {exc}"
                ) from None
        parts = rest.split("x")
        if len(parts) != 3:
            raise ValueError(
                f"dragonfly wants 'GxAxH' or 'groups=,routers=,hosts=', got {text!r}"
            )
        return Dragonfly(int(parts[0]), int(parts[1]), int(parts[2]))
    raise ValueError(
        f"unknown topology kind {kind!r} in {text!r}; "
        f"known: fattree, leafspine, dragonfly, or a mesh like '16x22'"
    )


def topology_label(topology: Topology) -> str:
    """Canonical string for ``topology`` (inverse of :func:`build_topology`)."""
    if isinstance(topology, ClosTopology):
        return topology.label
    if isinstance(topology, Mesh):
        return "x".join(str(n) for n in topology.shape) + (
            "t" if topology.torus else ""
        )
    raise TypeError(f"not a known topology: {topology!r}")
