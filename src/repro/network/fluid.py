"""Max-min fair fluid network model for full-trace sweeps.

The paper's microsimulator delivers each job's messages over a contended
wormhole mesh; a job terminates when its message quota has arrived
(Section 3.2).  Simulating every flit of the 6087-job trace is infeasible in
pure Python, so the trace sweeps (Figs 7, 8, 11) use this fluid twin, which
preserves the causal chain the paper measures:

    allocation -> route lengths & overlap -> link contention
               -> stretched message throughput -> FCFS queueing
               -> response time.

Model
-----
Each active job ``j`` has a load vector ``w[j, l]`` = flits crossing directed
link ``l`` per message sent (averaged over one pattern cycle, x-y routed; see
:mod:`repro.network.traffic`).  Three ingredients bound its message rate:

1. **Issue serialisation.**  The paper's jobs send "one message per second
   of trace run time"; issuing a message costs ``1 / issue_rate`` seconds.

2. **Per-hop latency with wormhole blocking.**  A message spends
   ``hop_latency`` seconds per hop on an idle network.  Under wormhole
   switching a blocked message holds its whole acquired path, so link ``l``
   is busy for a fraction::

       rho_l = contention_factor * hop_latency
               * sum_j r_j * (w[j,l] / message_flits) * mean_hops_j

   (messages/sec crossing the link, times the mean path-holding time of
   those messages).  A hop over a busy link is stretched by the queueing
   factor ``g(rho) = 1 / (1 - rho)`` (clipped at ``max_utilisation``);
   averaged over a cycle the per-message time is::

       t_j = 1/issue_rate
             + hop_latency * sum_l (w[j,l] / message_flits) * g(rho_l)

   which reduces to ``1/issue_rate + hop_latency * mean_hops_j`` on an idle
   network -- the linear distance/time relation of the paper's Fig 10 --
   and accumulates blocking hop by hop exactly as wormhole routing does.

3. **Bandwidth feasibility.**  Sustained flows obey
   ``sum_j r_j w[j,l] <= C_l``; progressive filling (water-filling) yields
   the max-min fair share.  With the default (derived) capacity
   ``message_flits / hop_latency`` this is the hard limit of one message
   occupying a link at a time.

Because utilisations depend on rates and vice versa,
:meth:`FluidNetwork.rates_vector` resolves the coupled system with a damped
fixed point (deterministic: at most ``fixed_point_iterations`` dense NumPy
iterations, ending early only once an iteration returns its input bit for
bit, after which every further one would too).
Rates are piecewise-constant between scheduler events; the simulator
drains each job's remaining quota at its current rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mesh.topology import Topology
from repro.network.links import link_space_for

__all__ = ["NetworkParams", "FluidNetwork", "max_min_rates"]

_EPS = 1e-12


@dataclass(frozen=True)
class NetworkParams:
    """Physical parameters shared by both network engines.

    Attributes
    ----------
    message_flits:
        Flits per message.  The trace experiments use fixed-size messages
        (ProcSimity's default workloads do the same).
    link_capacity:
        Directed-link bandwidth in flits/second for the hard feasibility
        bound.  ``None`` (default) derives the physically consistent value
        ``message_flits / hop_latency`` -- one message transiting a link at
        a time.
    hop_latency:
        Serial per-hop message latency in seconds on an idle network.  The
        default (~0.3 s/hop) matches the slope of the paper's Fig 10
        (running time vs. average message distance for ~42k-message jobs on
        a slow commodity network).
    issue_rate:
        Nominal message issue rate per job (messages/second); the paper
        fixes this at one message per second of trace runtime.
    contention_factor:
        Multiplier on the path-holding utilisation (module docstring);
        1.0 models one in-flight message per job, larger values model
        pipelined injection.  0.0 disables congestion entirely (useful for
        isolating the latency term).
    max_utilisation:
        Clip on link utilisation inside the congestion factor
        ``1 / (1 - rho)`` (numerical guard; caps the blocking stretch at
        ``1 / (1 - max_utilisation)``).
    fixed_point_iterations:
        Maximum number of damped iterations coupling rates and
        utilisations; a congested refresh stops sooner once an iteration
        leaves the rates bitwise unchanged (the remaining ones would
        repeat it).
    """

    message_flits: float = 64.0
    link_capacity: float | None = None
    hop_latency: float = 0.3
    issue_rate: float = 1.0
    contention_factor: float = 1.0
    max_utilisation: float = 0.9
    fixed_point_iterations: int = 6

    def __post_init__(self) -> None:
        if self.message_flits <= 0:
            raise ValueError("message_flits must be positive")
        if self.link_capacity is not None and self.link_capacity <= 0:
            raise ValueError("link_capacity must be positive (or None)")
        if self.hop_latency < 0 or self.issue_rate <= 0:
            raise ValueError("hop_latency >= 0 and issue_rate > 0 required")
        if self.contention_factor < 0:
            raise ValueError("contention_factor must be >= 0")
        if not 0 <= self.max_utilisation < 1:
            raise ValueError("max_utilisation must be in [0, 1)")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")

    @property
    def effective_link_capacity(self) -> float:
        """The feasibility-bound capacity (derived when not set)."""
        if self.link_capacity is not None:
            return self.link_capacity
        if self.hop_latency > 0:
            return self.message_flits / self.hop_latency
        return float("inf")


def max_min_rates(
    weights: np.ndarray,
    capacities: np.ndarray,
    caps: np.ndarray,
    incidence: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Max-min fair rates for flows with per-link weights and rate caps.

    Parameters
    ----------
    weights:
        ``(J, L)`` array; ``weights[j, l]`` is flow ``j``'s resource usage on
        link ``l`` per unit rate.
    capacities:
        ``(L,)`` link capacities.
    caps:
        ``(J,)`` per-flow maximum rates (demand caps).
    incidence:
        ``(rows, links, values)``: the positive entries of ``weights`` in
        row-major order, as ``np.nonzero(weights > 0)`` and the weights
        there.  ``None`` (default) derives it from ``weights``; a caller
        that keeps it (:class:`FluidNetwork`) has already rejected
        negative weights, and ``weights`` is then not read.  The arrays
        passed are not modified.

    Returns
    -------
    ``(J,)`` rate vector: the unique max-min fair allocation.

    Notes
    -----
    Progressive filling: raise all unfrozen rates together until either a
    link saturates (freeze its flows) or a flow hits its cap (freeze it).
    Terminates in at most ``J`` rounds.  Each round works on the incidence
    restricted to the loaded links, not on the dense matrix, yet performs
    the dense sweep's float operations in the same order:

    * a link's demand is a ``np.bincount`` over the row-major entries,
      which adds the active flows' weights in row order -- the order of
      an axis-0 sum of the dense rows (skipped zeros change nothing,
      since ``x + 0.0 == x``);
    * a frozen flow's entries are dropped from the incidence: in the
      dense sweep they weigh ``+0.0``, and ``np.bincount`` adds a bin's
      entries in input order onto partial sums that are already
      ``>= +0.0``, so removing them changes no bin (and the
      saturated-link mark then reaches only active flows);
    * every active flow has the same rate, ``level``, since all start at
      0.0 and take the same ``+= dt`` steps, so the smallest cap
      headroom is ``min(caps[active]) - level`` (rounding is monotone).

    The dense sweep is kept as a test oracle and matched bit for bit on
    every matrix of two or more links (NumPy sums a one-column matrix's
    axis 0 pairwise instead, and no mesh has exactly one link).
    """
    caps = np.asarray(caps, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    n_flows = caps.shape[0]
    if n_flows == 0:
        return np.zeros(0, dtype=np.float64)
    if incidence is None:
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError("negative link weights")
        rows, links = np.nonzero(weights > 0)
        values = weights[rows, links]
    else:
        rows, links, values = incidence
    if np.any(capacities <= 0):
        raise ValueError("link capacities must be positive")

    # Compact the loaded links into columns 0 .. n_loaded - 1.
    n_links = capacities.shape[0]
    loaded = np.zeros(n_links, dtype=bool)
    loaded[links] = True
    loaded_links = np.flatnonzero(loaded)
    n_loaded = loaded_links.shape[0]
    column = np.empty(n_links, dtype=np.intp)
    column[loaded_links] = np.arange(n_loaded)
    cols = column[links]
    residual = capacities[loaded_links]
    saturation = _EPS * np.maximum(residual, 1.0)
    ratio = np.empty(n_loaded, dtype=np.float64)

    # Flows that use no links are limited only by their caps.
    active = np.bincount(rows, minlength=n_flows) > 0
    rates = np.where(active, 0.0, caps)
    n_active = int(np.count_nonzero(active))
    level = 0.0
    cap_min = caps[active].min() if n_active else 0.0
    while n_active:
        demand = np.bincount(cols, weights=values, minlength=n_loaded)
        # Common rate increment until the tightest link saturates
        # (inf when no link carries demand) ...
        ratio.fill(np.inf)
        np.divide(residual, demand, out=ratio, where=demand > _EPS)
        dt_link = ratio.min()
        # ... or until the flow closest to its cap reaches it.
        dt_cap = cap_min - level
        dt = min(dt_link, dt_cap)
        if not math.isfinite(dt) or dt < 0:
            raise RuntimeError("water-filling failed to converge")

        level += dt
        residual -= dt * demand
        np.maximum(residual, 0.0, out=residual)

        if dt_cap <= dt_link:
            # Freeze flows that reached their caps.
            frozen = caps - level <= _EPS
            frozen &= active
        else:
            frozen = np.zeros(n_flows, dtype=bool)
        if dt_link <= dt_cap:
            # Freeze flows crossing any saturated link (the entries left
            # are all active flows').
            saturated = residual <= saturation
            if saturated.any():
                frozen[rows[saturated[cols]]] = True
        n_frozen = int(np.count_nonzero(frozen))
        if not n_frozen:
            continue
        rates[frozen] = level
        active[frozen] = False
        n_active -= n_frozen
        if n_active:
            cap_min = caps[active].min()
            # Drop the frozen flows' entries (they would weigh +0.0).
            keep = active[rows]
            rows = rows[keep]
            cols = cols[keep]
            values = values[keep]
    return rates


class FluidNetwork:
    """Tracks active flows and computes their contended message rates.

    The scheduler registers a flow when a job starts (:meth:`add_flow`) and
    removes it at completion (:meth:`remove_flow`); :meth:`rates_vector`
    returns the current messages/sec of every active job, in the row order
    of :meth:`flow_ids`, under the model described in the module docstring.

    State layout: the first ``n_flows`` rows of a preallocated,
    geometrically grown ``(J_max, L)`` matrix hold the active flows' load
    vectors, with per-row caches of the derived quantities the rates need
    (hop shares, idle per-message time, the path-holding coefficient).
    Each row also keeps its positive loads as ``(links, values)``, built
    the first time a waterfill needs them; concatenated in row order they
    are the row-major flow-link incidence ``max_min_rates`` runs on.
    This class is the one owner of the flow-to-row map: flows are appended
    in start order, and ``remove_flow`` compacts by shifting the rows above
    the hole down one slot (returning the removed row, so callers keeping
    row-parallel arrays shift theirs the same way) rather than swapping
    the last row in.  A swap would permute rows, and the incidence's row
    order is what fixes the order in which ``max_min_rates`` adds each
    link's demand -- order-preserving compaction keeps every array op
    bit-identical to restacking an insertion-ordered flow dict from
    scratch and solving it densely.  A per-link
    running column sum, updated by difference on add/remove, powers an
    uncongested fast path: when every flow could issue at its cap without
    filling any link (with a wide conservative margin, so drift in the
    running sum can never flip the decision), the water-filling solve is
    skipped because its result is exactly the cap vector.
    """

    #: Uncongested fast-path margin on link capacity.  max_min_rates
    #: returns exactly ``caps`` whenever ``issue_rate * colsum <= capacity``
    #: holds per link; requiring a 1/8 slack keeps the incremental column
    #: sum's accumulated rounding (ulps) from ever flipping the test.
    _GATE_MARGIN = 0.875

    def __init__(self, mesh: Topology, params: NetworkParams | None = None):
        self.mesh = mesh
        self.params = params or NetworkParams()
        self.space = link_space_for(mesh)
        cap = self.params.effective_link_capacity
        if not np.isfinite(cap):
            cap = 1e12  # latency-free configuration: feasibility never binds
        self.capacities = np.full(self.space.n_links, cap, dtype=np.float64)
        n_links = self.space.n_links
        self._n = 0
        self._ids: list[int] = []
        self._weights = np.empty((0, n_links), dtype=np.float64)
        self._hop_shares = np.empty((0, n_links), dtype=np.float64)
        self._idle_t = np.empty(0, dtype=np.float64)
        self._hold = np.empty(0, dtype=np.float64)
        self._colsum = np.zeros(n_links, dtype=np.float64)
        # Per-row (links, values) of the positive loads, or None until a
        # waterfill first needs them (see _incidence).
        self._entries: list[tuple[np.ndarray, np.ndarray] | None] = []
        self._gate_cap = self._GATE_MARGIN * self.capacities / self.params.issue_rate

    @property
    def n_flows(self) -> int:
        """Number of active flows."""
        return self._n

    def flow_ids(self) -> list[int]:
        """Ids of active flows, insertion-ordered."""
        return list(self._ids)

    def issue_cap(self, mean_hops: float) -> float:
        """Uncontended rate for a job with the given mean message distance
        (the congestion-free limit of the model)."""
        p = self.params
        return 1.0 / (1.0 / p.issue_rate + p.hop_latency * max(mean_hops, 0.0))

    def _grow(self, min_rows: int) -> None:
        rows = max(16, 2 * self._weights.shape[0])
        while rows < min_rows:
            rows *= 2
        n_links = self.space.n_links
        for name in ("_weights", "_hop_shares"):
            new = np.empty((rows, n_links), dtype=np.float64)
            new[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, new)
        for name in ("_idle_t", "_hold"):
            new = np.empty(rows, dtype=np.float64)
            new[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, new)

    def add_flow(self, flow_id: int, load_vector: np.ndarray, mean_hops: float) -> None:
        """Register an active job's per-link flit load (per message sent)."""
        if flow_id in self._ids:
            raise ValueError(f"flow {flow_id} already active")
        load_vector = np.asarray(load_vector, dtype=np.float64)
        if load_vector.shape != (self.space.n_links,):
            raise ValueError("load vector has wrong length for this mesh")
        if not (load_vector >= 0).all():
            raise ValueError("negative or NaN link loads")
        p = self.params
        row = self._n
        if row == self._weights.shape[0]:
            self._grow(row + 1)
        self._weights[row] = load_vector
        hop_shares = load_vector / p.message_flits
        self._hop_shares[row] = hop_shares
        # Row-local derived values: summing the single contiguous row uses
        # the same pairwise reduction an axis-1 sum of the stacked matrix
        # would, so caching at add time changes no bits.
        self._idle_t[row] = 1.0 / p.issue_rate + p.hop_latency * hop_shares.sum()
        self._hold[row] = p.contention_factor * p.hop_latency * float(mean_hops)
        self._colsum += load_vector
        self._entries.append(None)
        self._ids.append(flow_id)
        self._n = row + 1

    def remove_flow(self, flow_id: int) -> int:
        """Deregister a completed job; returns the row it occupied.

        The rows above it shift down one slot (order-preserving
        compaction).
        """
        try:
            row = self._ids.index(flow_id)
        except ValueError:
            raise ValueError(f"flow {flow_id} not active") from None
        n = self._n
        self._colsum -= self._weights[row]
        if row != n - 1:
            self._weights[row : n - 1] = self._weights[row + 1 : n]
            self._hop_shares[row : n - 1] = self._hop_shares[row + 1 : n]
            self._idle_t[row : n - 1] = self._idle_t[row + 1 : n]
            self._hold[row : n - 1] = self._hold[row + 1 : n]
        del self._ids[row]
        del self._entries[row]
        self._n = n - 1
        if self._n == 0:
            # Idle network: reset the running sum so float drift from the
            # +=/-= updates can never accumulate across the whole trace.
            self._colsum[:] = 0.0
        return row

    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, links, values)`` of the active flows' positive loads,
        row-major: ``np.nonzero(weights > 0)`` of the ``(n_flows, L)``
        weights and the loads there, as ``max_min_rates`` takes it
        (``n_flows >= 1``).

        A row's ``(links, values)`` are built from its dense load (checked
        non-negative by :meth:`add_flow`) the first time a waterfill needs
        them and kept until the flow is removed, so a run whose
        uncongested gate skips every waterfill never builds any.
        """
        entries = self._entries
        for row, entry in enumerate(entries):
            if entry is None:
                load = self._weights[row]
                links = np.flatnonzero(load > 0)
                entries[row] = (links, load[links])
        row_links = [links for links, _ in entries]
        rows = np.repeat(np.arange(self._n), [len(links) for links in row_links])
        links = np.concatenate(row_links)
        values = np.concatenate([values for _, values in entries])
        return rows, links, values

    def rates_vector(self) -> np.ndarray:
        """Message rate (messages/sec) of each active flow, in the row
        order of :meth:`flow_ids`.

        Resolves the rate/utilisation fixed point of the module docstring:
        rates start at the idle-network bound, utilisations are computed,
        congestion stretches per-hop latency, and the two relax together
        under 0.5 damping for at most ``fixed_point_iterations`` rounds.
        When the waterfill ran, the loop returns as soon as a round leaves
        the rates bitwise unchanged: a round is a pure function of the
        rates, so every remaining round would return the same bits.
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.float64)
        p = self.params
        weights = self._weights[:n]
        hop_shares = self._hop_shares[:n]
        issue = 1.0 / p.issue_rate
        caps = np.full(n, p.issue_rate)

        gated = (self._colsum <= self._gate_cap).all()
        if gated:
            # No link can fill even at full issue rate: progressive filling
            # caps every flow immediately, so its output is exactly `caps`.
            feasible = caps
        else:
            feasible = max_min_rates(
                weights, self.capacities, caps, incidence=self._incidence()
            )
        r = np.minimum(feasible, 1.0 / self._idle_t[:n])
        if p.contention_factor == 0 or p.hop_latency == 0:
            return r
        # Path-holding utilisation couples rates and latencies; relax the
        # fixed point under 0.5 damping for at most the configured rounds.
        hold = self._hold[:n]
        hop_latency = p.hop_latency
        max_util = p.max_utilisation
        # np.minimum/np.maximum spell out np.clip's own definition; the
        # floats are identical but the fromnumeric wrapper overhead is not,
        # and this loop runs up to six times per rate refresh.
        for _ in range(p.fixed_point_iterations):
            rho = np.minimum(np.maximum((r * hold) @ hop_shares, 0.0), max_util)
            stretch = 1.0 / (1.0 - rho)
            t = issue + hop_latency * (hop_shares @ stretch)
            r_next = 0.5 * r + 0.5 * np.minimum(feasible, 1.0 / t)
            # Exact exit, byte for byte (signed zeros and NaNs count).  The
            # rates settle once every flow is held at its waterfill share;
            # gated refreshes, held by latency alone, were not seen to
            # settle within the rounds, so they skip the check.
            if not gated and r_next.tobytes() == r.tobytes():
                return r_next
            r = r_next
        return r
