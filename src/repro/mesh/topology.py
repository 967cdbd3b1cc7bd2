"""Mesh topologies: coordinate systems, distances, adjacency.

Node identifiers are dense integers in ``[0, n_nodes)`` laid out row-major:
``node = y * width + x`` for 2-D meshes (and ``node = (z * height + y) *
width + x`` for 3-D).  All distance helpers accept either scalar node ids or
NumPy arrays of ids and broadcast accordingly, so metric computations over
whole allocations vectorise (see the hpc-parallel guide idiom: push loops
into NumPy).

The paper's machines are 2-D meshes (16x22 matching the SDSC Paragon
partition, and 16x16).  :class:`Mesh` takes two or three extents, and its
``torus`` flag extends the stack to the 3-D tori of real machines (Cplant
itself was a 3-D mesh family); the fig12 experiment drives an 8x8x8 torus
through the same pipeline.

:class:`Mesh` is the N-D surface the rest of the stack programs against:
``shape`` / ``n_dims`` / ``n_nodes``, ``coords`` / ``node_id``,
``axis_coords`` (per-axis coordinate arrays), ``manhattan`` /
``pairwise_manhattan`` (torus-aware), and ``neighbors``.  ``width`` and
``height`` name the first two extents for the 2-D-only code (MC, the
contiguous baseline, the ASCII renderings).  :func:`parse_mesh_string` is
the one parser of the ``WxH[xD][t]`` mesh grammar shared by topology
strings and campaign files.

Routing is dimension-ordered (x-y on 2-D meshes, x-y-z on 3-D ones), the
deadlock-free routing of ProcSimity that the paper assumes ("messages use
x-y routing rather than arbitrary paths", Section 4.3).  A mesh declares
it once, as the directed links
:meth:`repro.network.links.LinkSpace.links_on_route` crosses;
:meth:`Mesh.route` is the vertex view of that link list.

Meshes are one family of :class:`Topology` -- the structural protocol the
link-accounting and metrics layers program against.  The Clos fabrics of
:mod:`repro.mesh.clos` (fat-tree, leaf-spine, dragonfly) implement the
same protocol with explicit switch vertices and declare their route once
as a masked hop template; meshes keep their vectorised closed forms as
the fast path (``is_mesh`` distinguishes the two families where a closed
form only exists for meshes).  :func:`check_ids` is the one host-id range
check both families share.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Topology", "Mesh", "check_ids", "parse_mesh_string"]


def check_ids(topology: "Topology", *arrays: np.ndarray) -> None:
    """Reject host ids outside ``[0, topology.n_nodes)``.

    The distance helpers index per-host lookup arrays directly; without
    this check a negative id would silently wrap to the last host instead
    of raising.  Empty arrays pass.  The error names the topology by its
    ``_label()`` (:class:`Mesh` and the Clos fabrics both define one).
    """
    n = topology.n_nodes
    for arr in arrays:
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"node id out of range for {topology._label()}")


@runtime_checkable
class Topology(Protocol):
    """Structural protocol every machine topology implements.

    *Hosts* (allocatable processors) carry dense ids in ``[0, n_nodes)``;
    topologies with explicit switches expose them as extra vertices in
    ``[n_nodes, n_vertices)``.  Meshes have no switches, so there every
    vertex is a host.  The surface below is what the link-accounting
    (:mod:`repro.network.links`) and metrics (:mod:`repro.core.metrics`)
    layers require; implementations additionally set the class attribute
    ``is_mesh`` so mesh-only closed forms (difference-array link censuses,
    per-axis pairwise sums) can keep their fast path.
    """

    torus: bool

    @property
    def n_nodes(self) -> int:
        """Number of allocatable hosts."""
        ...

    @property
    def shape(self) -> tuple[int, ...]:
        """Serialisable extent tuple (``(n_nodes,)`` for switched fabrics)."""
        ...

    @property
    def n_dims(self) -> int:
        """Length of ``shape``."""
        ...

    def all_nodes(self) -> np.ndarray:
        """Array of every host id."""
        ...

    def neighbors(self, node: int) -> list[int]:
        """Vertices sharing a link with ``node`` (hosts or switches)."""
        ...

    def route(self, src: int, dst: int) -> list[int]:
        """Vertex path of a message from host ``src`` to host ``dst``,
        both endpoints included (``[src]`` for a self-message)."""
        ...

    def distance(self, a, b):
        """Hop count of :meth:`route` between host ids (broadcasts)."""
        ...

    def pairwise_distance(self, nodes) -> np.ndarray:
        """Dense ``(k, k)`` matrix of hop distances between ``nodes``."""
        ...


@dataclass(frozen=True, init=False, repr=False)
class Mesh:
    """A 2-D or 3-D mesh (or torus) of processors.

    Node ids are dense row-major with x fastest: ``node = y * width + x``
    on 2-D meshes and ``node = (z * height + y) * width + x`` on 3-D ones.

    Parameters
    ----------
    *extents:
        Two or three positive extents, x first.  The paper writes meshes
        as ``16 x 22`` meaning 16 columns and 22 rows; construct that as
        ``Mesh(16, 22)``.
    torus:
        If true, opposite faces are connected (a k-ary n-cube).  Extension;
        the paper's machines are plain meshes.

    >>> Mesh(16, 22).n_nodes
    352
    >>> Mesh(16, 22).coords(17)
    (1, 1)
    >>> Mesh(8, 8, 8, torus=True).manhattan(0, 7)  # x wraps: one hop
    1
    >>> Mesh(8, 8, 8, torus=True)
    Mesh(8, 8, 8, torus=True)
    """

    shape: tuple[int, ...]
    torus: bool
    #: Number of processors, cached: the distance helpers check ids against
    #: it on every call.
    n_nodes: int = field(compare=False)
    # Per-axis coordinate arrays (index -> x / y / z), built once.
    _coords: tuple[np.ndarray, ...] = field(compare=False)

    #: Meshes keep the vectorised closed-form fast paths (see Topology).
    is_mesh = True

    def __init__(self, *extents: int, torus: bool = False) -> None:
        try:
            shape = tuple(operator.index(n) for n in extents)
        except TypeError:
            shape = ()
        if (
            len(shape) not in (2, 3)
            or min(shape) < 1
            or any(isinstance(n, bool) for n in extents)
        ):
            raise ValueError(
                "mesh shape must be 2-D or 3-D with positive integer extents, "
                f"got {extents!r}"
            )
        ids = np.arange(math.prod(shape))
        coords = []
        stride = 1
        for extent in shape:
            axis = ids // stride % extent
            # Shared by every caller of axis_coords(): an in-place write
            # would corrupt the mesh's geometry for all later users.
            axis.flags.writeable = False
            coords.append(axis)
            stride *= extent
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "torus", bool(torus))
        object.__setattr__(self, "n_nodes", stride)
        object.__setattr__(self, "_coords", tuple(coords))

    def __repr__(self) -> str:
        extents = ", ".join(str(n) for n in self.shape)
        return f"Mesh({extents}{', torus=True' if self.torus else ''})"

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def n_dims(self) -> int:
        """Number of mesh dimensions (2 or 3)."""
        return len(self.shape)

    @property
    def width(self) -> int:
        """Extent along x (the 2-D-only code reads meshes as width x height)."""
        return self.shape[0]

    @property
    def height(self) -> int:
        """Extent along y."""
        return self.shape[1]

    def axis_coords(self, nodes=None) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays of ``nodes`` (all nodes if None; those
        are the mesh's own read-only arrays)."""
        if nodes is None:
            return self._coords
        nodes = np.asarray(nodes)
        return tuple(c[nodes] for c in self._coords)

    def node_id(self, *coords: int) -> int:
        """Return the node id at coordinates ``(x, y[, z])``."""
        if len(coords) != len(self.shape) or not all(
            0 <= c < n for c, n in zip(coords, self.shape)
        ):
            raise ValueError(f"{coords} outside {self._label()}")
        node = 0
        for c, n in zip(reversed(coords), reversed(self.shape)):
            node = node * n + c
        return node

    def coords(self, node):
        """Return ``(x, y[, z])`` for a node id (scalar or array)."""
        node = np.asarray(node)
        check_ids(self, node)
        out = tuple(c[node] for c in self._coords)
        if node.ndim == 0:
            return tuple(int(c) for c in out)
        return out

    def _label(self) -> str:
        """Name used in error messages (``"16x22 mesh"``)."""
        return "x".join(str(n) for n in self.shape) + " mesh"

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _axis_deltas(self, a, b) -> list[np.ndarray]:
        """Per-axis (torus-aware) distances between coordinate tuples."""
        out = []
        for ca, cb, extent in zip(a, b, self.shape):
            d = np.abs(ca - cb)
            if self.torus:
                d = np.minimum(d, extent - d)
            out.append(d)
        return out

    def manhattan(self, a, b):
        """Manhattan (hop) distance between node ids ``a`` and ``b``.

        This is the number of network hops a dimension-ordered message
        travels, the distance used throughout the paper (e.g. "average
        number of communication hops between the processors of a job").
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        check_ids(self, a, b)
        out, *rest = self._axis_deltas(self.axis_coords(a), self.axis_coords(b))
        for d in rest:
            out = out + d
        return int(out) if out.ndim == 0 else out

    def chebyshev(self, a, b):
        """Chebyshev (L-infinity) distance; MC's shells are Chebyshev rings."""
        a = np.asarray(a)
        b = np.asarray(b)
        check_ids(self, a, b)
        deltas = self._axis_deltas(self.axis_coords(a), self.axis_coords(b))
        out = np.maximum.reduce(deltas)
        return int(out) if out.ndim == 0 else out

    def pairwise_manhattan(self, nodes) -> np.ndarray:
        """Dense ``(k, k)`` matrix of Manhattan distances between ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        check_ids(self, nodes)
        coords = self.axis_coords(nodes)
        out, *rest = self._axis_deltas(
            [c[:, None] for c in coords], [c[None, :] for c in coords]
        )
        for d in rest:
            out = out + d
        return out

    # Protocol names: on meshes the hop distance *is* Manhattan distance.
    distance = manhattan
    pairwise_distance = pairwise_manhattan

    def route(self, src: int, dst: int) -> list[int]:
        """Dimension-ordered (x-y[-z]) vertex path, endpoints included.

        Axes are corrected lowest-first; on a torus each leg takes the
        shorter way around, ties positive.  The path is ``src`` followed
        by the head of every link
        :meth:`~repro.network.links.LinkSpace.links_on_route` crosses
        (lazy import: the network package depends on mesh).
        """
        from repro.network.links import LinkSpace

        space = LinkSpace.for_mesh(self)
        return [int(src)] + [
            space.endpoints(link)[1] for link in space.links_on_route(src, dst)
        ]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> list[int]:
        """4- (2-D) or 6-neighbourhood (3-D) of ``node``, axis by axis.

        With ``torus`` the neighbourhood wraps; a 1-wide axis adds no
        neighbour and a 2-wide axis adds one (its +1 and -1 coincide).
        """
        here = self.coords(node)
        out: list[int] = []
        for axis, extent in enumerate(self.shape):
            for step in (1, -1):
                c = here[axis] + step
                if self.torus:
                    c %= extent
                    if c == here[axis]:
                        continue
                elif not 0 <= c < extent:
                    continue
                nid = self.node_id(*here[:axis], c, *here[axis + 1 :])
                if nid not in out:
                    out.append(nid)
        return out

    def are_adjacent(self, a: int, b: int) -> bool:
        """True if nodes ``a`` and ``b`` share a mesh link."""
        return self.manhattan(a, b) == 1

    def all_nodes(self) -> np.ndarray:
        """Array of every node id."""
        return np.arange(self.n_nodes)


def parse_mesh_string(text: str) -> Mesh:
    """Build a mesh from ``WxH[xD]`` with an optional trailing ``t`` (torus).

    >>> parse_mesh_string("8x8x8t")
    Mesh(8, 8, 8, torus=True)
    """
    text = str(text).strip().lower()
    torus = text.endswith("t")
    body = text[:-1] if torus else text
    try:
        shape = tuple(int(part) for part in body.split("x"))
    except ValueError:
        raise ValueError(f"cannot parse mesh string {text!r}") from None
    return Mesh(*shape, torus=torus)
