"""Bench: the incidence waterfill vs the dense progressive filling.

The dense form is the test oracle ``dense_max_min_rates`` in
``tests/oracles/maxmin.py`` (``benchmarks/conftest.py`` puts ``tests/``
on the import path).  The bench records every waterfill a seeded
congested run performs -- fig07's 16x22 machine with links of 2
flits/s, one cell per pattern -- together with the flow-link incidence
``FluidNetwork`` hands the solver, then replays the solves through
both forms.  The rate vectors must agree bit for bit before the speed
comparison means anything; the solver must then hold a >= 1.5x latency
floor over the oracle (CI fails on a regression below it).
"""

import time

import numpy as np
from oracles.maxmin import dense_max_min_rates

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.network import fluid
from repro.network.fluid import NetworkParams, max_min_rates
from repro.patterns import get_pattern
from repro.sched.simulator import Simulation
from repro.trace.synthetic import sdsc_paragon_trace

PATTERNS = ("all-to-all", "n-body", "random")
FLOOR = 1.5


def _recorded_solves():
    """``(weights, capacities, caps, incidence)`` of every waterfill."""
    solves = []

    def record(weights, capacities, caps, incidence=None):
        solves.append(
            (weights.copy(), capacities.copy(), caps.copy(), tuple(a.copy() for a in incidence))
        )
        return max_min_rates(weights, capacities, caps, incidence=incidence)

    mesh = Mesh(16, 22)
    jobs = [
        j
        for j in sdsc_paragon_trace(seed=1, n_jobs=150, runtime_scale=0.01)
        if j.size <= mesh.n_nodes
    ]
    saved = fluid.max_min_rates
    fluid.max_min_rates = record
    try:
        for pattern in PATTERNS:
            Simulation(
                mesh,
                make_allocator("hilbert+bf"),
                get_pattern(pattern),
                jobs,
                NetworkParams(link_capacity=2.0),
                seed=1,
            ).run()
    finally:
        fluid.max_min_rates = saved
    return solves


def _run_sparse(solves):
    return [
        max_min_rates(weights, capacities, caps, incidence=incidence)
        for weights, capacities, caps, incidence in solves
    ]


def _run_dense(solves):
    return [
        dense_max_min_rates(weights, capacities, caps)
        for weights, capacities, caps, _ in solves
    ]


def test_waterfill_latency_vs_dense(benchmark):
    solves = _recorded_solves()
    assert solves, "the congested runs never reached the waterfill"
    # Determinism gate: identical rate vectors on every recorded solve.
    for got, expected in zip(_run_sparse(solves), _run_dense(solves), strict=True):
        assert np.array_equal(got, expected)
    # Alternate the two forms so drift on a shared host hits both.
    t_sparse = t_dense = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        _run_sparse(solves)
        t_sparse = min(t_sparse, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run_dense(solves)
        t_dense = min(t_dense, time.perf_counter() - t0)
    speedup = t_dense / t_sparse
    per_solve_sparse = t_sparse / len(solves) * 1e6
    per_solve_dense = t_dense / len(solves) * 1e6
    mean_flows = np.mean([weights.shape[0] for weights, *_ in solves])
    benchmark.extra_info["us_per_solve_sparse"] = round(per_solve_sparse, 1)
    benchmark.extra_info["us_per_solve_dense"] = round(per_solve_dense, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n[waterfill, {len(solves)} solves, mean {mean_flows:.1f} flows] "
        f"incidence {per_solve_sparse:.0f} us/solve, dense {per_solve_dense:.0f} "
        f"us/solve, speedup {speedup:.2f}x (floor {FLOOR}x)"
    )
    assert speedup >= FLOOR, (
        f"waterfill only {speedup:.2f}x the dense progressive filling "
        f"(regression floor {FLOOR}x)"
    )
    # One timed round for the pytest-benchmark table.
    benchmark.pedantic(_run_sparse, args=(solves,), rounds=1, iterations=1)
