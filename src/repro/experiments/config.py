"""Experiment scales.

The paper's simulations use the full 6087-job trace with unscaled runtimes
(mean quota ~11k messages).  The fluid engine's cost is per *event*, not per
message, so the full trace is tractable; the ``small``/``medium`` scales
shrink the trace for benchmarks and CI.  ``runtime_scale`` multiplies both
runtimes and interarrival times, which keeps offered load -- and therefore
the contention regime -- invariant while shortening absolute magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.network.fluid import NetworkParams

__all__ = ["Scale", "SMALL", "MEDIUM", "FULL", "get_scale"]


@dataclass(frozen=True)
class Scale:
    """Workload sizing for the experiment drivers.

    Attributes
    ----------
    name:
        Scale label.
    n_jobs:
        Trace length (paper: 6087).
    runtime_scale:
        Multiplier on runtimes *and* interarrivals (load-invariant).
    loads:
        Load factors swept by Figs 7/8 (paper: 1, 0.8, 0.6, 0.4, 0.2).
    fig1_repetitions:
        Cplant-test-suite repetitions for Fig 1 (paper: 100).
    fig1_samples:
        Number of dispersal levels sampled for Fig 1.
    fig9_min_samples:
        Minimum 128-processor instances required for Figs 9/10; at reduced
        trace scale the driver boosts the share of 128-node jobs to reach
        it (sample-count substitution only; full scale needs no boost).
    seed:
        Base seed for trace generation and pattern randomness.
    """

    name: str
    n_jobs: int
    runtime_scale: float
    loads: tuple[float, ...]
    fig1_repetitions: int
    fig1_samples: int
    fig9_min_samples: int
    seed: int = 1

    def network_params(self) -> NetworkParams:
        """Fluid-network parameters (identical across scales)."""
        return NetworkParams()

    def with_seed(self, seed: int) -> "Scale":
        """Copy of this scale with a different base seed."""
        return replace(self, seed=seed)


SMALL = Scale(
    name="small",
    n_jobs=150,
    runtime_scale=0.01,
    loads=(1.0, 0.6, 0.2),
    fig1_repetitions=1,
    fig1_samples=10,
    fig9_min_samples=10,
)

MEDIUM = Scale(
    name="medium",
    n_jobs=1500,
    runtime_scale=0.05,
    loads=(1.0, 0.8, 0.6, 0.4, 0.2),
    fig1_repetitions=3,
    fig1_samples=18,
    fig9_min_samples=24,
)

FULL = Scale(
    name="full",
    n_jobs=6087,
    runtime_scale=1.0,
    loads=(1.0, 0.8, 0.6, 0.4, 0.2),
    fig1_repetitions=100,
    fig1_samples=30,
    fig9_min_samples=24,
)

_SCALES = {s.name: s for s in (SMALL, MEDIUM, FULL)}


def get_scale(name: str) -> Scale:
    """Look up a scale by name.

    >>> small = get_scale("small")
    >>> small.n_jobs, small.loads
    (150, (1.0, 0.6, 0.2))
    """
    try:
        return _SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; known: {sorted(_SCALES)}") from None
