"""Max-min fairness optimality certificate.

A rate vector is the max-min fair allocation for ``(weights, capacities,
caps)`` exactly when it is feasible (non-negative, within every flow's cap
and every link's capacity) and every flow is *blocked*: it either runs at
its cap or crosses a saturated link.  Checking that needs only the
inputs and the output of a solve, not the progressive-filling algorithm
that produced it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assert_max_min_certificate"]

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
