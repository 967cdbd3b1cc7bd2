"""Max-min fairness: an optimality certificate and a dense reference solver.

A rate vector is the max-min fair allocation for ``(weights, capacities,
caps)`` exactly when it is feasible (non-negative, within every flow's cap
and every link's capacity) and every flow is *blocked*: it either runs at
its cap or crosses a saturated link.  Checking that needs only the
inputs and the output of a solve, not the progressive-filling algorithm
that produced it (:func:`assert_max_min_certificate`).

:func:`dense_max_min_rates` is the progressive filling the package ran
before its waterfill moved onto a sparse flow-link incidence: every
freeze round sweeps the dense ``(J, L)`` matrix.  It shares no code with
:func:`repro.network.fluid.max_min_rates`, which must match it bit for
bit on every matrix of two or more columns (NumPy sums a single-column
matrix's axis 0 pairwise, so there the two may differ in the last bits).
"""

from __future__ import annotations

import numpy as np

__all__ = ["assert_max_min_certificate", "dense_max_min_rates"]

_EPS = 1e-12

#: Slack on per-flow comparisons (non-negativity, caps) and on per-link
#: ones (capacity, saturation), absorbing the waterfill's float rounding.
RATE_TOL = 1e-7
LINK_TOL = 1e-6


def assert_max_min_certificate(
    weights: np.ndarray, capacities: np.ndarray, caps: np.ndarray, rates: np.ndarray
) -> None:
    """Assert ``rates`` is feasible, capped and max-min optimal for the
    ``(J, L)`` ``weights``, ``(L,)`` ``capacities`` and ``(J,)`` ``caps``."""
    assert rates.shape == caps.shape == (weights.shape[0],)
    assert np.all(rates >= -RATE_TOL), "negative rate"
    assert np.all(rates <= caps + RATE_TOL), "rate above its cap"
    usage = rates @ weights
    over = usage > capacities + LINK_TOL
    assert not over.any(), f"links over capacity: {np.flatnonzero(over).tolist()}"
    saturated = usage >= capacities - LINK_TOL
    for j in range(len(rates)):
        at_cap = rates[j] >= caps[j] - RATE_TOL
        blocked = np.any(saturated & (weights[j] > 0))
        assert at_cap or blocked, f"flow {j} could still grow (rate {rates[j]!r})"


def dense_max_min_rates(
    weights: np.ndarray,
    capacities: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Max-min fair rates by dense progressive filling.

    ``weights`` is ``(J, L)``, ``capacities`` ``(L,)`` and ``caps``
    ``(J,)``.  Raise all unfrozen rates together until either a link
    saturates (freeze its flows) or a flow hits its cap (freeze it).
    Terminates in at most ``J`` iterations; each iteration is dense NumPy.
    Do not "optimise" this function: it is the reference the sparse
    solver is pinned to.
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
