"""Space-filling and fractal curve orderings of mesh processors (Section 2.1).

A :class:`Curve` is a bijection between curve ranks ``0 .. n-1`` and the
node ids of a mesh.  The one-dimensional-reduction (Paging) allocators treat
the machine as this rank line and pack jobs into intervals of it.

Implemented orderings:

* :func:`row_major` -- Lo et al.'s simplest page ordering,
* :func:`s_curve` -- boustrophedon/snake ordering (Fig 2a); on non-square
  meshes the straight runs can go along the short or the long dimension
  (the paper's "quick simulations" preferred the short direction, which is
  the default),
* :func:`hilbert` -- the Hilbert space-filling curve (Fig 2b),
* :func:`h_indexing` -- the closed (Hamiltonian-cycle) fractal indexing of
  Niedermeier, Reinhardt & Sanders (Fig 2c).  We reconstruct it as the
  closed Hilbert-family cycle (four order-(k-1) Hilbert sub-curves joined
  left-half-up / right-half-down, i.e. the Moore-curve composition); the
  original paper's exact reflection conventions are not recoverable from
  the figure, and every structural property the experiments rely on
  (Hamiltonian cycle, unit steps, Hilbert-class locality, truncation gaps)
  is preserved and property-tested.  See docs/substitutions.md substitution #4.

Non-power-of-two meshes follow the paper exactly: "To get a curve for the
16 x 22 machine, we truncated a 32 x 32 curve to the appropriate size.  The
result is 'curves' with gaps" (Section 4, Fig 6).  :meth:`Curve.gap_ranks`
exposes where those gaps fall.

``row_major``, ``s_curve`` and ``hilbert`` also order 3-D meshes, which is
what makes the Paging allocators built on them 3-D-capable: the S-curve
snakes each z-plane along x and reverses every other plane, and
:func:`hilbert_points` builds the Hilbert curve in any dimension (the
multidimensional indexings of Alber & Niedermeier, which the paper cites),
truncated from the enclosing ``2^k`` cube.  H-indexing is 2-D only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.topology import Mesh

__all__ = [
    "Curve",
    "row_major",
    "s_curve",
    "hilbert",
    "h_indexing",
    "get_curve",
    "curve_names",
    "PLANAR_CURVES",
    "hilbert_points",
    "h_indexing_points",
]


# ----------------------------------------------------------------------
# Point generators on 2^k-sided grids
# ----------------------------------------------------------------------
def hilbert_points(order: int, n_dims: int = 2) -> np.ndarray:
    """All points of the ``n_dims``-D Hilbert curve on a ``2^order`` grid.

    Returns a ``(2^(order * n_dims), n_dims)`` array of coordinates in curve
    order; ``order == 0`` yields the single origin cell.  This is
    Skilling's transpose algorithm (J. Skilling, "Programming the Hilbert
    curve", 2004) run over every index at once: the index bits are dealt
    round-robin to the axes, most significant first, then Gray-decoded and
    the excess rotations undone.  In 2-D the curve starts at (0, 0) and
    ends at (2^order - 1, 0).

    >>> hilbert_points(1).tolist()
    [[0, 0], [0, 1], [1, 1], [1, 0]]
    """
    if order < 0 or n_dims < 1:
        raise ValueError("order >= 0 and n_dims >= 1 required")
    total_bits = order * n_dims
    index = np.arange(1 << total_bits, dtype=np.int64)
    x = np.zeros((n_dims, len(index)), dtype=np.int64)
    for bit_pos in range(total_bits):
        axis = bit_pos % n_dims
        x[axis] = (x[axis] << 1) | ((index >> (total_bits - 1 - bit_pos)) & 1)
    if order > 0:
        # Gray decode by H ^ (H/2).
        t = x[n_dims - 1] >> 1
        for i in range(n_dims - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # Undo excess work: where bit q of axis i is set, invert the low
        # bits of axis 0; elsewhere exchange the low bits of axes 0 and i.
        q = 2
        while q != 1 << order:
            p = q - 1
            for i in range(n_dims - 1, -1, -1):
                hit = (x[i] & q) != 0
                t = np.where(hit, 0, (x[0] ^ x[i]) & p)
                x[0] ^= np.where(hit, p, t)
                x[i] ^= t
            q <<= 1
    return x.T.copy()


def h_indexing_points(order: int) -> np.ndarray:
    """All points of the closed H-indexing cycle on a 2^order grid.

    Composition (left half ascends, right half descends; see module
    docstring): with ``m = 2^(order-1)`` and ``P`` the order-(order-1)
    Hilbert path from (0,0) to (m-1,0),

    * bottom-left : ``(x,y) -> (m-1-y, x)``          starts (m-1,0), ends (m-1,m-1)
    * top-left    : same, offset (0, m)
    * top-right   : ``(x,y) -> (y, m-1-x)``, offset (m, m)
    * bottom-right: same, offset (m, 0)               ends (m, 0)

    The final point (m, 0) is adjacent to the first (m-1, 0): a Hamiltonian
    cycle.  For ``order == 0`` the single cell is returned.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return np.zeros((1, 2), dtype=np.int64)
    m = 1 << (order - 1)
    p = hilbert_points(order - 1)
    x, y = p[:, 0], p[:, 1]
    ccw = np.stack([m - 1 - y, x], axis=1)   # 90 degrees counter-clockwise
    cw = np.stack([y, m - 1 - x], axis=1)    # 90 degrees clockwise
    bl = ccw
    tl = ccw + (0, m)
    tr = cw + (m, m)
    br = cw + (m, 0)
    return np.concatenate([bl, tl, tr, br], axis=0)


def _snake(shape: tuple[int, ...]) -> np.ndarray:
    """Boustrophedon ids of a row-major grid: runs along the first axis.

    Each further axis stacks copies of the lower-dimensional snake, every
    other copy reversed, so every step is a unit mesh step.
    """
    order = np.arange(shape[0], dtype=np.int64)
    stride = shape[0]
    for extent in shape[1:]:
        block = np.arange(extent, dtype=np.int64)[:, None] * stride + order
        block[1::2] = block[1::2, ::-1]
        order = block.ravel()
        stride *= extent
    return order


# ----------------------------------------------------------------------
# Curve object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Curve:
    """An ordering of all processors of a mesh.

    Attributes
    ----------
    name:
        Registry name (``"hilbert"``, ``"s-curve"``, ...).
    mesh:
        The mesh being ordered.
    order:
        ``order[rank] == node_id``; length ``mesh.n_nodes``.
    rank:
        Inverse permutation, ``rank[node_id] == rank``.
    """

    name: str
    mesh: Mesh
    order: np.ndarray
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = np.asarray(self.order, dtype=np.int64)
        n = self.mesh.n_nodes
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError(f"curve order is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", order)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        object.__setattr__(self, "rank", rank)

    @property
    def n_nodes(self) -> int:
        """Number of processors ordered by the curve."""
        return self.mesh.n_nodes

    def step_lengths(self) -> np.ndarray:
        """Manhattan distance of each consecutive step along the curve."""
        a = self.order[:-1]
        b = self.order[1:]
        return self.mesh.manhattan(a, b)

    def gap_ranks(self) -> np.ndarray:
        """Ranks ``r`` where the step ``r -> r+1`` is not a unit mesh step.

        Exact-size curves on power-of-two square meshes have no gaps; the
        truncated curves of Fig 6 do ("arrows indicate the processor after
        a gap" -- those processors are at ranks ``gap_ranks() + 1``).
        """
        return np.flatnonzero(self.step_lengths() > 1)

    def n_gaps(self) -> int:
        """Number of discontinuities along the curve."""
        return len(self.gap_ranks())

    def is_cycle(self) -> bool:
        """True if the last processor is mesh-adjacent to the first."""
        return bool(
            self.mesh.manhattan(int(self.order[-1]), int(self.order[0])) == 1
        )

    def points(self) -> np.ndarray:
        """``(n, n_dims)`` array of node coordinates in curve order."""
        return np.stack(self.mesh.axis_coords(self.order), axis=1)


def _truncated(name: str, mesh: Mesh, pts: np.ndarray) -> Curve:
    """Keep the points of an enclosing ``2^k`` grid curve inside ``mesh``.

    This is the paper's truncation (Section 4): the mesh is cut from the
    smallest power-of-two square (or cube) enclosing it, and the curve
    jumps wherever the enclosing curve leaves the mesh.
    """
    shape = np.asarray(mesh.shape)
    pts = pts[np.all(pts < shape, axis=1)]
    strides = np.cumprod(np.concatenate(([1], shape[:-1])))
    return Curve(name=name, mesh=mesh, order=pts @ strides)


def _enclosing_order(mesh: Mesh) -> int:
    return (max(mesh.shape) - 1).bit_length()


# ----------------------------------------------------------------------
# Public builders
# ----------------------------------------------------------------------
def row_major(mesh: Mesh) -> Curve:
    """Row-major ordering (Lo et al.'s baseline page order)."""
    return Curve("row-major", mesh, np.arange(mesh.n_nodes, dtype=np.int64))


def s_curve(mesh: Mesh, runs: str = "short") -> Curve:
    """Boustrophedon (snake) ordering.

    ``runs`` selects the direction of the straight runs on a 2-D mesh:
    ``"x"``, ``"y"``, ``"short"`` (runs along the shorter mesh dimension;
    the paper's choice) or ``"long"``.  On square meshes ``"short"``
    resolves to ``"x"``.  A 3-D mesh snakes each z-plane along x and
    reverses every other plane, so it takes only the default ``runs``.
    """
    if mesh.n_dims != 2:
        if runs != "short":
            raise ValueError(f"runs={runs!r} applies to 2-D meshes only")
        return Curve("s-curve", mesh, _snake(mesh.shape))
    if runs == "short":
        runs = "x" if mesh.width <= mesh.height else "y"
    elif runs == "long":
        runs = "y" if mesh.width <= mesh.height else "x"
    if runs == "x":
        order = _snake(mesh.shape)
    elif runs == "y":  # snake the transposed grid, then map ids back
        order = _snake((mesh.height, mesh.width))
        order = order % mesh.height * mesh.width + order // mesh.height
    else:
        raise ValueError("runs must be 'x' or 'y'")
    return Curve("s-curve", mesh, order)


def hilbert(mesh: Mesh) -> Curve:
    """Hilbert curve ordering, truncated from the enclosing 2^k square/cube."""
    pts = hilbert_points(_enclosing_order(mesh), mesh.n_dims)
    return _truncated("hilbert", mesh, pts)


def h_indexing(mesh: Mesh) -> Curve:
    """H-indexing (closed fractal cycle), truncated from the enclosing square.

    H-indexing is a 2-D construction (one of :data:`PLANAR_CURVES`): a 3-D
    mesh raises :class:`ValueError`.  The Paging allocators built on it
    declare 2-D meshes only, so they refuse a 3-D machine before this.
    """
    if mesh.n_dims != 2:
        raise ValueError(
            f"curve 'h-indexing' has no {mesh.n_dims}-D construction; "
            "3-D-capable curves: ['hilbert', 'row-major', 's-curve']"
        )
    pts = h_indexing_points(_enclosing_order(mesh))
    return _truncated("h-indexing", mesh, pts)


#: Curves with a 2-D construction only; the others also order 3-D meshes.
PLANAR_CURVES = frozenset({"h-indexing"})

_BUILDERS = {
    "row-major": row_major,
    "s-curve": s_curve,
    "hilbert": hilbert,
    "h-indexing": h_indexing,
}

_CACHE: dict[tuple, Curve] = {}


def get_curve(name: str, mesh: Mesh, **kwargs) -> Curve:
    """Build (and cache) a named curve for a 2-D or 3-D mesh.

    Curve names without a 3-D construction (``"h-indexing"``) raise a
    clear :class:`ValueError` on 3-D meshes.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown curve {name!r}; known: {sorted(_BUILDERS)}")
    key = (name, tuple(mesh.shape), mesh.torus, tuple(sorted(kwargs.items())))
    curve = _CACHE.get(key)
    if curve is None:
        curve = _BUILDERS[name](mesh, **kwargs)
        _CACHE[key] = curve
    return curve


def curve_names() -> list[str]:
    """Names of all available curve orderings."""
    return sorted(_BUILDERS)
