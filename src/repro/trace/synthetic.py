"""Synthetic SDSC-Paragon-like trace generation (docs/substitutions.md
substitution #1).

:func:`sdsc_paragon_trace` reproduces the published statistics of the trace
behind the paper's simulations; :func:`synthetic_trace` is the general
generator.  :func:`apply_load_factor` implements Section 3.2's load knob:
"We varied the message intensity by contracting all job arrival times by a
load factor, taking values 1, 0.8, 0.6, 0.4, and 0.2 so that effective
system load increases by up to a factor of 5."  :func:`drop_oversized`
implements the 16x16 adjustment: "using the same trace except for removing
3 jobs of 320 nodes each that are too large to fit the smaller machine."
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sched.job import Job
from repro.trace.distributions import Hyperexponential, PowerOfTwoSizes

__all__ = [
    "SyntheticTraceConfig",
    "synthetic_trace",
    "sdsc_paragon_trace",
    "apply_load_factor",
    "drop_oversized",
    "trace_statistics",
]

#: Published statistics of the SDSC Paragon NQS trace (Section 3.1).
SDSC_N_JOBS = 6087
SDSC_MEAN_INTERARRIVAL = 1301.0
SDSC_CV_INTERARRIVAL = 3.7
SDSC_MEAN_SIZE = 14.5
SDSC_CV_SIZE = 1.5
SDSC_MEAN_RUNTIME = 3.04 * 3600.0
SDSC_CV_RUNTIME = 1.13
SDSC_MAX_SIZE = 352
SDSC_N_320_JOBS = 3


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of the synthetic workload generator."""

    n_jobs: int = SDSC_N_JOBS
    mean_interarrival: float = SDSC_MEAN_INTERARRIVAL
    cv_interarrival: float = SDSC_CV_INTERARRIVAL
    mean_size: float = SDSC_MEAN_SIZE
    mean_runtime: float = SDSC_MEAN_RUNTIME
    cv_runtime: float = SDSC_CV_RUNTIME
    max_size: int = SDSC_MAX_SIZE
    n_320_jobs: int = SDSC_N_320_JOBS
    power_of_two_share: float = 0.82
    min_runtime: float = 60.0
    #: Tenants to assign deterministically (0 = no tenancy, the historical
    #: behaviour: every job carries the unknown-user sentinel -1).
    n_users: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.n_320_jobs > self.n_jobs:
            raise ValueError("more 320-node jobs than jobs")
        if self.n_users < 0:
            raise ValueError("n_users must be >= 0")


def synthetic_trace(config: SyntheticTraceConfig, seed: int = 0) -> list[Job]:
    """Generate a job trace matching ``config``'s moment statistics.

    Deterministic in ``(config, seed)``.  Jobs are returned sorted by
    arrival with dense ids in arrival order.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D5C]))
    inter = Hyperexponential.fit(config.mean_interarrival, config.cv_interarrival)
    runtime = Hyperexponential.fit(config.mean_runtime, config.cv_runtime)
    sizes = PowerOfTwoSizes.fit(
        config.mean_size, max_size=config.max_size, p2=config.power_of_two_share
    )

    arrivals = np.cumsum(inter.sample(rng, config.n_jobs))
    arrivals -= arrivals[0]  # first job arrives at t = 0
    size_draw = sizes.sample(rng, config.n_jobs)
    run_draw = np.maximum(runtime.sample(rng, config.n_jobs), config.min_runtime)

    # Inject the documented 320-node jobs (they matter: dropping them is
    # exactly how the paper builds the 16x16 workload).
    if config.n_320_jobs and config.max_size >= 320:
        slots = rng.choice(config.n_jobs, size=config.n_320_jobs, replace=False)
        size_draw[slots] = 320

    # Tenants come from a *separate* stream so enabling tenancy never
    # perturbs the arrival/size/runtime draws above -- an n_users=0 trace
    # stays byte-identical to its historical form.
    if config.n_users > 0:
        user_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E7A]))
        users = user_rng.integers(0, config.n_users, size=config.n_jobs)
    else:
        users = np.full(config.n_jobs, -1)

    return [
        Job(job_id=i, arrival=float(a), size=int(s), runtime=float(r), user_id=int(u))
        for i, (a, s, r, u) in enumerate(zip(arrivals, size_draw, run_draw, users))
    ]


def sdsc_paragon_trace(
    seed: int = 0,
    n_jobs: int = SDSC_N_JOBS,
    runtime_scale: float = 1.0,
    n_users: int = 0,
) -> list[Job]:
    """The paper's workload: SDSC Paragon Q4-1996 statistics.

    Parameters
    ----------
    seed:
        Generator seed (experiments fix this for reproducibility).
    n_jobs:
        Number of jobs; benchmarks use a prefix-scale workload, the full
        figure runs use the paper's 6087.  Interarrival statistics are
        unchanged, so a shorter trace is simply a shorter observation
        window.
    runtime_scale:
        Multiplies runtimes (hence message quotas).  Scaling runtimes *and*
        interarrivals together leaves offered load invariant; the benchmark
        harness uses it to keep laptop runtimes small (see
        ``experiments/config.py``).
    n_users:
        When positive, assign each job a deterministic tenant in
        ``[0, n_users)`` from a seed-derived stream independent of the
        workload draws (fairness experiments); 0 leaves jobs tenant-free.
    """
    config = SyntheticTraceConfig(
        n_jobs=n_jobs,
        mean_interarrival=SDSC_MEAN_INTERARRIVAL * runtime_scale,
        mean_runtime=SDSC_MEAN_RUNTIME * runtime_scale,
        min_runtime=max(60.0 * runtime_scale, 10.0),
        n_320_jobs=min(SDSC_N_320_JOBS, n_jobs),
        n_users=n_users,
    )
    return synthetic_trace(config, seed=seed)


def apply_load_factor(jobs: list[Job], load_factor: float) -> list[Job]:
    """Contract arrival times by ``load_factor`` (Section 3.2's load knob).

    ``load_factor=1`` is the trace as recorded; smaller values compress
    arrivals, raising the offered load by ``1 / load_factor``.

    >>> jobs = [Job(0, 0.0, 4, 10.0), Job(1, 100.0, 8, 5.0)]
    >>> [j.arrival for j in apply_load_factor(jobs, 0.5)]
    [0.0, 50.0]
    """
    if load_factor <= 0:
        raise ValueError("load_factor must be positive")
    return [replace(j, arrival=j.arrival * load_factor) for j in jobs]


def drop_oversized(jobs: list[Job], n_nodes: int) -> list[Job]:
    """Remove jobs larger than the machine (the paper's 16x16 adjustment).

    >>> [j.job_id for j in drop_oversized(
    ...     [Job(0, 0.0, 4, 1.0), Job(1, 1.0, 600, 1.0)], n_nodes=352)]
    [0]
    """
    return [j for j in jobs if j.size <= n_nodes]


def trace_statistics(jobs: list[Job]) -> dict:
    """Empirical moments of a trace (for validation and reporting)."""
    arrivals = np.array([j.arrival for j in jobs])
    sizes = np.array([j.size for j in jobs], dtype=np.float64)
    runtimes = np.array([j.runtime for j in jobs])
    inter = np.diff(np.sort(arrivals))

    def cv(x: np.ndarray) -> float:
        return float(x.std() / x.mean()) if len(x) and x.mean() > 0 else 0.0

    return {
        "n_jobs": len(jobs),
        "mean_interarrival": float(inter.mean()) if len(inter) else 0.0,
        "cv_interarrival": cv(inter),
        "mean_size": float(sizes.mean()),
        "cv_size": cv(sizes),
        "mean_runtime": float(runtimes.mean()),
        "cv_runtime": cv(runtimes),
        "max_size": int(sizes.max()),
        "n_powers_of_two": int(
            sum(1 for s in sizes if int(s) & (int(s) - 1) == 0)
        ),
    }
