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

Loads accumulate in one scatter: each axis leg of a dimension-ordered
route covers a (circular) interval of one *line* of same-direction link
columns, so a batch of messages reduces to ``+weight`` / ``-weight`` marks
in one flat difference buffer of lines (a single ``np.bincount``), then
one ``cumsum`` along the lines and one gather into link-id order --
O(messages + links) and a fixed handful of NumPy calls per batch, on
meshes *and* tori.  Batches carry per-message weights, so the traffic
layer routes a pattern's distinct pairs once each, weighted by how often
each is sent; with integer weights every load is an exact integer.

Switched fabrics (:mod:`repro.mesh.clos`) get the same two-sided surface
from :class:`GraphLinkSpace`, which numbers the directed links of an
explicit vertex graph and accumulates batched loads through the
topology's masked hop templates (``route_segments``).  Callers that only
need *a* link space for *a* topology use :func:`link_space_for`, which
returns the cached mesh fast path unchanged for meshes.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.topology import Mesh, Topology, check_ids

__all__ = ["LinkSpace", "GraphLinkSpace", "link_space_for"]


def _message_weights(weight, shape: tuple[int, ...]) -> np.ndarray:
    """``weight`` broadcast to the messages' ``shape``, flattened.

    Integer and bool weights become ``int64`` (so ``-weight`` is a true
    negative and hop totals stay exact integers); anything else becomes
    ``float64``.
    """
    weight = np.asarray(weight)
    dtype = np.int64 if weight.dtype.kind in "iub" else np.float64
    if weight.shape != shape:
        weight = np.broadcast_to(weight, shape)
    return weight.ravel().astype(dtype, copy=False)


class LinkSpace:
    """Directed-link id space of a mesh, with vectorised load accumulation."""

    _cache: dict[tuple, "LinkSpace"] = {}

    def __init__(self, mesh: Mesh):
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
        self._scatter_layout()

    @classmethod
    def for_mesh(cls, mesh: Mesh) -> "LinkSpace":
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
            weighted number of messages crossing directed link ``l``.  With
            integer-valued weights every entry is an exact integer.
        """
        return self.route_tally(src, dst, weight)[0]

    def route_tally(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: float | np.ndarray = 1.0,
    ) -> tuple[np.ndarray, int | float]:
        """``(loads, hops)``: :meth:`accumulate_route_loads` plus the
        weighted hop total ``sum(weight * distance)`` of the same routes.

        The hop total is an exact integer (``int``) when ``weight`` is an
        integer array, which is how the traffic layer passes a weighted
        cycle's message counts.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        weight = _message_weights(weight, src.shape)
        loads, total = self._scatter(src.ravel(), dst.ravel(), weight)
        return loads, (int if weight.dtype == np.int64 else float)(total)

    def _scatter_layout(self) -> None:
        """Precompute the flat difference buffer and per-node lookup tables.

        The buffer is a stack of *lines*, one per (axis, direction, row):
        the link columns a leg along that axis can cover, padded to a
        common width ``max(n) + 1`` so an interval end at column ``n``
        stays on its line.  Lines are ordered axis by axis, positive
        direction then negative, rows in the link blocks' own order, so
        ``_take`` -- the buffer position of every link id -- is one gather.
        """
        extents, d = self.extents, self.n_dims
        width = max(extents) + 1
        coords = np.indices(tuple(reversed(extents)), dtype=np.int64)
        coords = coords.reshape(d, -1)[::-1]  # (d, n_nodes), x fastest
        src_part = np.zeros((d, self.mesh.n_nodes), dtype=np.int64)
        dst_part = np.zeros_like(src_part)
        half = []
        take = []
        base = 0
        for axis, n in enumerate(extents):
            rows = self.mesh.n_nodes // n
            # A leg's row is the ravel (x fastest) of its other coordinates:
            # axes below ``axis`` already at the destination's value, axes
            # above still at the source's.
            dims = [self.axis_cols[axis] if k == axis else e
                    for k, e in enumerate(extents)]
            link = np.unravel_index(
                np.arange(self.axis_block[axis]), tuple(reversed(dims))
            )[::-1]
            row = np.zeros(self.axis_block[axis], dtype=np.int64)
            stride = 1
            for k in range(d):
                if k == axis:
                    continue
                part = dst_part if k < axis else src_part
                part[axis] += coords[k] * stride
                row += link[k] * stride
                stride *= extents[k]
            src_part[axis] = (src_part[axis] + base) * width
            dst_part[axis] *= width
            half.append(rows * width)
            for direction in range(2):
                take.append((base + direction * rows + row) * width + link[axis])
            base += 2 * rows
        # Per node: its coordinates, then its share of each axis's line
        # index (times ``width``) as a message's source / destination.
        self._src_table = np.concatenate([coords, src_part])
        self._dst_table = np.concatenate([coords, dst_part])
        self._half = np.asarray(half, dtype=np.int64)[:, None]
        self._extent_col = np.asarray(extents, dtype=np.int64)[:, None]
        self._lines = (base, width)
        self._take = np.concatenate(take)

    def _scatter(
        self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> tuple[np.ndarray, np.integer | np.floating]:
        """``(loads, hops)`` of a batch of dimension-ordered messages.

        Every axis leg covers a (circular) interval of one line of
        same-direction link columns.  Its ``+weight`` mark at the first
        column and ``-weight`` mark one past the last land in one flat
        difference buffer through a single ``np.bincount``; a torus leg
        that wraps is split into ``[start, n)`` and ``[0, end - n)``.  The
        marks go in as plain starts, plain ends, then the wrap pieces,
        each in message order, so every bin adds its marks in the
        sequence that per-block ``np.add.at`` calls would.  A leg that
        does not move (or the other kind's slot of one that does) carries
        weight 0, which leaves every bin unchanged.  One ``cumsum`` along
        the lines turns the marks into loads.  ``hops`` is the weighted
        sum of every message's leg lengths.
        """
        d = self.n_dims
        at_src = self._src_table.take(src, axis=1)
        at_dst = self._dst_table.take(dst, axis=1)
        a, b = at_src[:d], at_dst[:d]
        line = at_src[d:] + at_dst[d:]
        if self.torus:
            n = self._extent_col
            fwd = (b - a) % n
            back = (a - b) % n
            negative = back < fwd  # ties go positive
            start = np.where(negative, b, a)
            length = np.where(negative, back, fwd)
        else:
            negative = b < a
            start = np.minimum(a, b)
            length = np.abs(b - a)
        line += negative * self._half
        first = line + start
        w = weight * (length > 0)
        hops = np.vdot(length, w)
        if self.torus:
            end = start + length
            wrap = end > n
            w_wrap = w * wrap
            w = w - w_wrap
            marks = (
                first, line + np.minimum(end, n),
                first, line + n, line, line + np.where(wrap, end - n, 0),
            )
            signed = (w, -w, w_wrap, -w_wrap, w_wrap, -w_wrap)
        else:
            marks = (first, first + length)
            signed = (w, -w)
        n_lines, width = self._lines
        buf = np.bincount(
            np.concatenate(marks).ravel(),
            weights=np.concatenate(signed).ravel(),
            minlength=n_lines * width,
        )
        loads = np.cumsum(buf.reshape(n_lines, width), axis=1).ravel()
        return loads[self._take], hops


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
        return self.route_tally(src, dst, weight)[0]

    def route_tally(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: float | np.ndarray = 1.0,
    ) -> tuple[np.ndarray, int | float]:
        """``(loads, hops)`` as :meth:`LinkSpace.route_tally`, from one
        pass over the hop template: each active hop adds its message's
        weight to the hop's link and one hop to the message's distance."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        check_ids(self.topology, src, dst)
        weight = _message_weights(weight, src.shape)
        # np.add.at has no fast path for a dtype cast: scatter float64.
        load_weight = weight.astype(np.float64, copy=False)
        src = src.ravel()
        dst = dst.ravel()
        loads = np.zeros(self.n_links, dtype=np.float64)
        dist = np.zeros(src.shape, dtype=np.int64)
        for u, v, mask in self.topology.route_segments(src, dst):
            dist += mask
            if not np.any(mask):
                continue
            u = np.broadcast_to(np.asarray(u, dtype=np.int64), mask.shape)
            v = np.broadcast_to(np.asarray(v, dtype=np.int64), mask.shape)
            ids = self._link_of[u[mask], v[mask]]
            if np.any(ids < 0):
                raise ValueError(
                    f"route segment crosses a non-link in {self.topology!r}"
                )
            np.add.at(loads, ids, load_weight[mask])
        total = np.vdot(dist, weight)
        return loads, (int if weight.dtype == np.int64 else float)(total)


def link_space_for(topology: Topology):
    """The link space matching ``topology``.

    Meshes keep their cached vectorised :class:`LinkSpace` (identity --
    this is the fast path the benchmarks pin); switched topologies return
    their own cached :class:`GraphLinkSpace`.
    """
    if getattr(topology, "is_mesh", True):
        return LinkSpace.for_mesh(topology)
    return topology.link_space()
