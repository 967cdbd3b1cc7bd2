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

Because utilisations depend on rates and vice versa, :meth:`FluidNetwork.rates`
resolves the coupled system with a damped fixed point (deterministic, a
fixed number of dense NumPy iterations).  Rates are piecewise-constant
between scheduler events; the simulator drains each job's remaining quota
at its current rate.
"""

from __future__ import annotations

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
        Damped iterations coupling rates and utilisations.
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

    Returns
    -------
    ``(J,)`` rate vector: the unique max-min fair allocation.

    Notes
    -----
    Progressive filling: raise all unfrozen rates together until either a
    link saturates (freeze its flows) or a flow hits its cap (freeze it).
    Terminates in at most ``J`` iterations; each iteration is dense NumPy.
    """
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    n_flows = weights.shape[0]
    if n_flows == 0:
        return np.zeros(0, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("negative link weights")
    if np.any(capacities <= 0):
        raise ValueError("link capacities must be positive")

    rates = np.zeros(n_flows, dtype=np.float64)
    active = np.ones(n_flows, dtype=bool)
    residual = capacities.copy()

    # Flows that use no links are limited only by their caps.
    unloaded = ~np.any(weights > 0, axis=1)
    rates[unloaded] = caps[unloaded]
    active[unloaded] = False

    while np.any(active):
        w_active = weights[active]
        demand = w_active.sum(axis=0)
        used = demand > _EPS
        # Common rate increment until the tightest link saturates.
        if np.any(used):
            dt_link = np.min(residual[used] / demand[used])
        else:
            dt_link = np.inf
        # ... or until the flow closest to its cap reaches it.
        headroom = caps[active] - rates[active]
        dt_cap = np.min(headroom)
        dt = min(dt_link, dt_cap)
        if not np.isfinite(dt) or dt < 0:
            raise RuntimeError("water-filling failed to converge")

        idx = np.flatnonzero(active)
        rates[idx] += dt
        residual -= dt * demand
        residual = np.maximum(residual, 0.0)

        if dt_cap <= dt_link:
            # Freeze flows that reached their caps.
            capped = idx[caps[idx] - rates[idx] <= _EPS]
            active[capped] = False
        if dt_link <= dt_cap:
            # Freeze flows crossing any saturated link.
            saturated = residual <= _EPS * np.maximum(capacities, 1.0)
            if np.any(saturated):
                crossing = np.any(
                    weights[np.ix_(idx, np.flatnonzero(saturated))] > 0, axis=1
                )
                active[idx[crossing]] = False
    return rates


class FluidNetwork:
    """Tracks active flows and computes their contended message rates.

    The scheduler registers a flow when a job starts (:meth:`add_flow`) and
    removes it at completion (:meth:`remove_flow`); :meth:`rates` returns the
    current messages/sec of every active job under the model described in
    the module docstring.

    State layout (the vectorised-core refactor): the first ``n_flows`` rows
    of a preallocated, geometrically grown ``(J_max, L)`` matrix hold the
    active flows' load vectors, with per-row caches of the derived
    quantities ``rates`` needs (hop shares, idle per-message time, the
    path-holding coefficient).  ``remove_flow`` compacts by shifting the
    rows above the hole down one slot rather than swapping the last row in:
    a swap would permute rows, and row order is what fixes the floating
    point reduction order of ``max_min_rates``'s column sums -- order-
    preserving compaction keeps every array op bit-identical to restacking
    the flow dict from scratch.  A per-link running column sum, updated by
    difference on add/remove, powers an uncongested fast path: when every
    flow could issue at its cap without filling any link (with a wide
    conservative margin, so drift in the running sum can never flip the
    decision), the water-filling solve is skipped because its result is
    exactly the cap vector.
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
        self._row_of: dict[int, int] = {}
        self._weights = np.empty((0, n_links), dtype=np.float64)
        self._hop_shares = np.empty((0, n_links), dtype=np.float64)
        self._idle_t = np.empty(0, dtype=np.float64)
        self._hold = np.empty(0, dtype=np.float64)
        self._colsum = np.zeros(n_links, dtype=np.float64)
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
        if flow_id in self._row_of:
            raise ValueError(f"flow {flow_id} already active")
        load_vector = np.asarray(load_vector, dtype=np.float64)
        if load_vector.shape != (self.space.n_links,):
            raise ValueError("load vector has wrong length for this mesh")
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
        self._ids.append(flow_id)
        self._row_of[flow_id] = row
        self._n = row + 1

    def remove_flow(self, flow_id: int) -> None:
        """Deregister a completed job (order-preserving row compaction)."""
        row = self._row_of.pop(flow_id, None)
        if row is None:
            raise ValueError(f"flow {flow_id} not active")
        n = self._n
        self._colsum -= self._weights[row]
        if row != n - 1:
            self._weights[row : n - 1] = self._weights[row + 1 : n]
            self._hop_shares[row : n - 1] = self._hop_shares[row + 1 : n]
            self._idle_t[row : n - 1] = self._idle_t[row + 1 : n]
            self._hold[row : n - 1] = self._hold[row + 1 : n]
        del self._ids[row]
        for i in range(row, n - 1):
            self._row_of[self._ids[i]] = i
        self._n = n - 1
        if self._n == 0:
            # Idle network: reset the running sum so float drift from the
            # +=/-= updates can never accumulate across the whole trace.
            self._colsum[:] = 0.0

    def rates_vector(self) -> np.ndarray:
        """Message rates aligned with :meth:`flow_ids` (row order).

        Same fixed point as :meth:`rates`, returned as a dense vector for
        the simulator's array-based event loop.
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.float64)
        p = self.params
        weights = self._weights[:n]
        hop_shares = self._hop_shares[:n]
        issue = 1.0 / p.issue_rate
        caps = np.full(n, p.issue_rate)

        if (self._colsum <= self._gate_cap).all():
            # No link can fill even at full issue rate: progressive filling
            # caps every flow immediately, so its output is exactly `caps`.
            feasible = caps
        else:
            feasible = max_min_rates(weights, self.capacities, caps)
        r = np.minimum(feasible, 1.0 / self._idle_t[:n])
        if p.contention_factor == 0 or p.hop_latency == 0:
            return r
        # Path-holding utilisation couples rates and latencies; relax the
        # fixed point under 0.5 damping (deterministic iteration count).
        hold = self._hold[:n]
        hop_latency = p.hop_latency
        max_util = p.max_utilisation
        # np.minimum/np.maximum spell out np.clip's own definition; the
        # floats are identical but the fromnumeric wrapper overhead is not,
        # and this loop runs six times per rate refresh.
        for _ in range(p.fixed_point_iterations):
            rho = np.minimum(np.maximum((r * hold) @ hop_shares, 0.0), max_util)
            stretch = 1.0 / (1.0 - rho)
            t = issue + hop_latency * (hop_shares @ stretch)
            r = 0.5 * r + 0.5 * np.minimum(feasible, 1.0 / t)
        return r

    def rates(self) -> dict[int, float]:
        """Message rate (messages/sec) of each active flow.

        Resolves the rate/utilisation fixed point of the module docstring:
        rates start at the idle-network bound, utilisations are computed,
        congestion stretches per-hop latency, and the two relax together
        under 0.5 damping for a fixed iteration count (deterministic).
        Dict-shim over :meth:`rates_vector` (insertion-ordered ids).
        """
        if self._n == 0:
            return {}
        return dict(zip(self._ids, self.rates_vector().tolist()))
