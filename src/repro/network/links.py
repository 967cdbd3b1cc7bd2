"""Dense numbering of the directed links of an N-D mesh or torus.

Every physical mesh channel is modelled as two directed links (ProcSimity
likewise simulates full-duplex channels).  Links are numbered in two blocks
per axis -- positive direction first, then negative -- in axis order, so a
2-D mesh keeps the historical E / W / N / S block layout:

======  =======================  ==================================================
block   direction                id layout (2-D)
======  =======================  ==================================================
E       ``(x, y) -> (x+1, y)``   ``axis_offsets[0][0] + y * axis_cols[0] + x``
W       ``(x+1, y) -> (x, y)``   ``axis_offsets[0][1] + y * axis_cols[0] + x``
N       ``(x, y) -> (x, y+1)``   ``axis_offsets[1][0] + y * width + x``
S       ``(x, y+1) -> (x, y)``   ``axis_offsets[1][1] + y * width + x``
======  =======================  ==================================================

Generally, the directed link in axis ``k``'s positive block at position
``(c_0, .., c_{D-1})`` (with ``c_k`` the link "column", i.e. it connects
``c_k -> c_k + 1`` modulo the extent on a torus) has within-block id equal
to the C-order ravel of ``(c_{D-1}, .., c_0)`` with axis ``k``'s extent
replaced by its column count: ``extent`` on a torus (the extra column being
the wraparound edge), ``extent - 1`` on a plain mesh.  For 2-D meshes this
reproduces the table above bit for bit.

Per-direction loads accumulate with NumPy difference arrays: each axis leg
of a dimension-ordered route covers a (circular) interval of columns, so a
batch of messages reduces to scattered +/- marks followed by a ``cumsum``
along the leg axis -- O(messages + links), no Python-level loop, on meshes
*and* tori.

Switched fabrics (:mod:`repro.mesh.clos`) get the same two-sided surface
from :class:`GraphLinkSpace`, which numbers the directed links of an
explicit vertex graph and accumulates batched loads through the
topology's masked hop templates (``route_segments``).  Callers that only
need *a* link space for *a* topology use :func:`link_space_for`, which
returns the cached mesh fast path unchanged for meshes.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.topology import Mesh2D, Mesh3D, Topology

__all__ = ["LinkSpace", "GraphLinkSpace", "link_space_for"]


class LinkSpace:
    """Directed-link id space of a mesh, with vectorised load accumulation."""

    _cache: dict[tuple, "LinkSpace"] = {}

    def __init__(self, mesh: Mesh2D | Mesh3D):
        self.mesh = mesh
        self.extents = tuple(mesh.shape)
        self.n_dims = len(self.extents)
        self.torus = mesh.torus
        # Link "columns" along each axis: a column c holds the channel
        # c -> c+1 (mod extent on a torus; the wrap edge is column n-1).
        self.axis_cols = tuple(
            n if mesh.torus else n - 1 for n in self.extents
        )
        self.axis_block = tuple(
            self.axis_cols[k] * (mesh.n_nodes // self.extents[k])
            for k in range(self.n_dims)
        )
        offsets = []
        off = 0
        for k in range(self.n_dims):
            offsets.append((off, off + self.axis_block[k]))
            off += 2 * self.axis_block[k]
        #: Per axis ``(positive_offset, negative_offset)`` block starts.
        self.axis_offsets = tuple(offsets)
        self.n_links = off
        # Node-id strides per coordinate axis (x fastest, row-major ids).
        strides = []
        acc = 1
        for n in self.extents:
            strides.append(acc)
            acc *= n
        self._node_strides = tuple(strides)

    @classmethod
    def for_mesh(cls, mesh: Mesh2D | Mesh3D) -> "LinkSpace":
        """Cached LinkSpace for ``mesh`` (keyed on shape and torus flag)."""
        key = (tuple(mesh.shape), mesh.torus)
        space = cls._cache.get(key)
        if space is None:
            space = cls(mesh)
            cls._cache[key] = space
        return space

    # ------------------------------------------------------------------
    # Link id arithmetic
    # ------------------------------------------------------------------
    def _block_strides(self, axis: int) -> tuple[int, ...]:
        """Within-block stride of each coordinate axis (x fastest)."""
        strides = []
        acc = 1
        for k, n in enumerate(self.extents):
            strides.append(acc)
            acc *= self.axis_cols[axis] if k == axis else n
        return tuple(strides)

    def link_id(self, axis: int, positive: bool, coords) -> int:
        """Id of the directed link along ``axis`` at position ``coords``.

        ``coords[axis]`` is the link column ``c`` (the channel between
        coordinates ``c`` and ``c+1``, modulo the extent on a torus); the
        remaining entries locate the channel's row.
        """
        if not 0 <= coords[axis] < self.axis_cols[axis]:
            raise ValueError(
                f"column {coords[axis]} out of range for axis {axis}"
            )
        strides = self._block_strides(axis)
        off = self.axis_offsets[axis][0 if positive else 1]
        return off + int(sum(c * s for c, s in zip(coords, strides)))

    def east(self, x: int, y: int) -> int:
        """Id of the link from ``(x, y)`` eastward to ``(x+1, y)`` (2-D)."""
        return self.link_id(0, True, (x, y))

    def west(self, x: int, y: int) -> int:
        """Id of the link from ``(x+1, y)`` westward to ``(x, y)`` (2-D)."""
        return self.link_id(0, False, (x, y))

    def north(self, x: int, y: int) -> int:
        """Id of the link from ``(x, y)`` northward to ``(x, y+1)`` (2-D)."""
        return self.link_id(1, True, (x, y))

    def south(self, x: int, y: int) -> int:
        """Id of the link from ``(x, y+1)`` southward to ``(x, y)`` (2-D)."""
        return self.link_id(1, False, (x, y))

    def endpoints(self, link: int) -> tuple[int, int]:
        """``(from_node, to_node)`` of a directed link id."""
        if link < 0 or link >= self.n_links:
            raise ValueError(f"link id {link} out of range")
        for axis in range(self.n_dims):
            pos_off, neg_off = self.axis_offsets[axis]
            if link < neg_off + self.axis_block[axis]:
                positive = link < neg_off
                idx = link - (pos_off if positive else neg_off)
                coords = []
                for k, n in enumerate(self.extents):
                    dim = self.axis_cols[axis] if k == axis else n
                    coords.append(idx % dim)
                    idx //= dim
                low = sum(c * s for c, s in zip(coords, self._node_strides))
                c_hi = (coords[axis] + 1) % self.extents[axis]
                high = low + (c_hi - coords[axis]) * self._node_strides[axis]
                return (low, high) if positive else (high, low)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Route enumeration
    # ------------------------------------------------------------------
    def _step_positive(self, cur: int, dst: int, extent: int) -> bool:
        if not self.torus:
            return dst > cur
        return (dst - cur) % extent <= (cur - dst) % extent

    def links_on_route(self, src: int, dst: int) -> list[int]:
        """Directed link ids crossed by a dimension-ordered route.

        Axes are corrected lowest-first (x-y routing on 2-D meshes); on a
        torus each leg takes the shorter way around, ties positive.
        """
        mesh = self.mesh
        cur = list(mesh.coords(src))
        dst_coords = mesh.coords(dst)
        out: list[int] = []
        for axis, extent in enumerate(self.extents):
            c, d = cur[axis], dst_coords[axis]
            while c != d:
                if self._step_positive(c, d, extent):
                    cur[axis] = c
                    out.append(self.link_id(axis, True, cur))
                    c = (c + 1) % extent if self.torus else c + 1
                else:
                    nc = (c - 1) % extent if self.torus else c - 1
                    cur[axis] = nc
                    out.append(self.link_id(axis, False, cur))
                    c = nc
            cur[axis] = d
        return out

    # ------------------------------------------------------------------
    # Vectorised accumulation (hot path of the fluid engine)
    # ------------------------------------------------------------------
    def accumulate_route_loads(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Per-link traversal loads for a batch of dimension-ordered messages.

        Parameters
        ----------
        src, dst:
            Arrays of node ids, one entry per message.
        weight:
            Scalar or per-message weight added along each message's route.

        Returns
        -------
        numpy.ndarray
            Dense float array of length :attr:`n_links`; entry ``l`` is the
            weighted number of messages crossing directed link ``l``.

        Notes
        -----
        Each axis leg of a dimension-ordered route covers a (circular)
        interval of same-direction links in one row, so the whole batch
        reduces to scattered +/- marks in per-direction difference arrays
        followed by a ``cumsum`` (O(messages + links), no Python loop).  On
        a torus a wrapping leg splits into two plain intervals.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        weight_arr = np.broadcast_to(
            np.asarray(weight, dtype=np.float64), src.shape
        ).ravel()
        src = src.ravel()
        dst = dst.ravel()

        src_c = [
            (src // s) % n for s, n in zip(self._node_strides, self.extents)
        ]
        dst_c = [
            (dst // s) % n for s, n in zip(self._node_strides, self.extents)
        ]

        loads = np.empty(self.n_links, dtype=np.float64)
        for axis, n in enumerate(self.extents):
            a, b = src_c[axis], dst_c[axis]
            # Leg position: axes already corrected sit at dst, later at src.
            row = [dst_c[k] if k < axis else src_c[k] for k in range(self.n_dims)]
            if self.torus:
                fwd = (b - a) % n
                back = (a - b) % n
                go_pos = (fwd > 0) & (fwd <= back)
                go_neg = back < fwd
            else:
                fwd = b - a
                back = a - b
                go_pos = fwd > 0
                go_neg = back > 0
            for positive, mask, start, length in (
                (True, go_pos, a, fwd),
                (False, go_neg, b, back),
            ):
                off = self.axis_offsets[axis][0 if positive else 1]
                block = self._accumulate_axis_legs(
                    axis, row, mask, start, length, weight_arr
                )
                loads[off : off + self.axis_block[axis]] = block
        return loads

    def _accumulate_axis_legs(
        self, axis, row, mask, start, length, weight
    ) -> np.ndarray:
        """Difference-array accumulation of one direction's axis legs."""
        n = self.extents[axis]
        # Reversed-coordinate dims (C order, x fastest), axis widened by one
        # column so interval ends never spill.
        shape = tuple(
            (n + 1) if k == axis else self.extents[k]
            for k in reversed(range(self.n_dims))
        )
        diff = np.zeros(shape, dtype=np.float64)
        axis_pos = self.n_dims - 1 - axis  # axis's position in the dims

        def at(col, sel):
            return tuple(
                col[sel] if k == axis else row[k][sel]
                for k in reversed(range(self.n_dims))
            )

        end = start + length
        plain = mask & (end <= n)
        if np.any(plain):
            np.add.at(diff, at(start, plain), weight[plain])
            np.add.at(diff, at(end, plain), -weight[plain])
        if self.torus:
            wrap = mask & (end > n)
            if np.any(wrap):
                full = np.full_like(start, n)
                zero = np.zeros_like(start)
                np.add.at(diff, at(start, wrap), weight[wrap])
                np.add.at(diff, at(full, wrap), -weight[wrap])
                np.add.at(diff, at(zero, wrap), weight[wrap])
                np.add.at(diff, at(end - n, wrap), -weight[wrap])
        cum = np.cumsum(diff, axis=axis_pos)
        sel = [slice(None)] * self.n_dims
        sel[axis_pos] = slice(0, self.axis_cols[axis])
        return cum[tuple(sel)].ravel()


class GraphLinkSpace:
    """Directed-link id space of an explicit vertex graph topology.

    Built from a :class:`~repro.mesh.clos.ClosTopology`'s adjacency: every
    undirected link becomes two directed links (full-duplex channels, as
    in :class:`LinkSpace`), numbered by ascending ``(from, to)`` vertex
    pair.  A dense ``(n_vertices, n_vertices)`` pair -> link-id matrix
    makes id lookup and batched accumulation pure array indexing; Clos
    vertex counts are small (hundreds to a few thousand), so the matrix
    stays a few megabytes.
    """

    def __init__(self, topology):
        self.topology = topology
        n_v = topology.n_vertices
        self.n_vertices = n_v
        link_of = np.full((n_v, n_v), -1, dtype=np.int64)
        heads: list[int] = []
        tails: list[int] = []
        for u in range(n_v):
            for v in topology.neighbors(u):
                if link_of[u, v] >= 0:
                    raise ValueError(
                        f"duplicate link {u}->{v} in {topology!r} adjacency"
                    )
                link_of[u, v] = len(heads)
                heads.append(u)
                tails.append(v)
        present = link_of >= 0
        if not np.array_equal(present, present.T):
            raise ValueError(f"asymmetric adjacency in {topology!r}")
        self.n_links = len(heads)
        self._link_of = link_of
        self._heads = np.asarray(heads, dtype=np.int64)
        self._tails = np.asarray(tails, dtype=np.int64)

    def link_id(self, u: int, v: int) -> int:
        """Id of the directed link from vertex ``u`` to vertex ``v``."""
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            raise ValueError(f"vertex id out of range: ({u}, {v})")
        lid = int(self._link_of[u, v])
        if lid < 0:
            raise ValueError(f"no link {u}->{v} in {self.topology!r}")
        return lid

    def endpoints(self, link: int) -> tuple[int, int]:
        """``(from_vertex, to_vertex)`` of a directed link id."""
        if link < 0 or link >= self.n_links:
            raise ValueError(f"link id {link} out of range")
        return int(self._heads[link]), int(self._tails[link])

    def links_on_route(self, src: int, dst: int) -> list[int]:
        """Directed link ids crossed by the topology's route."""
        path = self.topology.route(src, dst)
        return [self.link_id(u, v) for u, v in zip(path, path[1:])]

    def accumulate_route_loads(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Per-link traversal loads for a batch of routed messages.

        The topology's ``route_segments`` expresses every message's route
        as the masked subsequence of a short fixed hop template, so the
        whole batch accumulates with one ``np.add.at`` per template hop
        -- the switched-fabric analogue of the mesh difference arrays.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        weight_arr = np.broadcast_to(
            np.asarray(weight, dtype=np.float64), src.shape
        ).ravel()
        src = src.ravel()
        dst = dst.ravel()
        loads = np.zeros(self.n_links, dtype=np.float64)
        for u, v, mask in self.topology.route_segments(src, dst):
            if not np.any(mask):
                continue
            u = np.broadcast_to(np.asarray(u, dtype=np.int64), mask.shape)
            v = np.broadcast_to(np.asarray(v, dtype=np.int64), mask.shape)
            ids = self._link_of[u[mask], v[mask]]
            if np.any(ids < 0):
                raise ValueError(
                    f"route segment crosses a non-link in {self.topology!r}"
                )
            np.add.at(loads, ids, weight_arr[mask])
        return loads


def link_space_for(topology: Topology):
    """The link space matching ``topology``.

    Meshes keep their cached vectorised :class:`LinkSpace` (identity --
    this is the fast path the benchmarks pin); switched topologies return
    their own cached :class:`GraphLinkSpace`.
    """
    if getattr(topology, "is_mesh", True):
        return LinkSpace.for_mesh(topology)
    return topology.link_space()
