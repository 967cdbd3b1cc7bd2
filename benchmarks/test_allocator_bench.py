"""Bench: MC / MC1x1 summed-area-table scoring vs the ``F x F`` shell matrix.

The shell-matrix form is the test oracle ``tests/oracles/mc.py``
(``benchmarks/conftest.py`` puts ``tests/`` on the import path).  The
bench fragments the paper's 16x22 machine the way a running trace does
-- Hilbert + Best Fit places jobs of random size until the machine is
~85 % busy, then a random half of them finish -- and asks both forms
for the same requests on every fragment.  The node arrays must agree
bit for bit, order included, before the speed comparison means
anything; the allocator must then hold a >= 2x latency floor over the
oracle (CI fails on a regression below it).
"""

import time

import numpy as np
from oracles.mc import mc_nodes

from repro.core.base import Request
from repro.core.mc import MCAllocator
from repro.core.registry import make_allocator
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

MESH_SHAPE = (16, 22)
SIZES = (1, 4, 9, 16, 24, 48)
FLOOR = 2.0


def _fragments(n_machines=12, seed=3):
    """Machines fragmented by placing random jobs and freeing half."""
    mesh = Mesh(*MESH_SHAPE)
    placer = make_allocator("hilbert+bf")
    rng = np.random.default_rng(seed)
    machines = []
    for _ in range(n_machines):
        machine = Machine(mesh)
        placed = []
        job_id = 0
        while machine.n_busy < 0.85 * mesh.n_nodes:
            size = min(int(rng.integers(1, 41)), machine.n_free)
            allocation = placer.allocate(Request(size=size, job_id=job_id), machine)
            machine.allocate(allocation.held, job_id=job_id)
            placed.append(allocation.held)
            job_id += 1
        for i in rng.permutation(len(placed))[: len(placed) // 2]:
            machine.release(placed[i])
        machines.append(machine)
    return machines


def _calls():
    """``(machine, k, shaped)`` for every fragment, size and MC variant."""
    return [
        (machine, k, shaped)
        for machine in _fragments()
        for k in SIZES
        if k <= machine.n_free
        for shaped in (True, False)
    ]


def _run_allocator(calls):
    return [
        MCAllocator(shaped).allocate(Request(size=k, job_id=1), machine).nodes
        for machine, k, shaped in calls
    ]


def _run_oracle(calls):
    return [mc_nodes(machine, k, shaped) for machine, k, shaped in calls]


def _best_time(fn, calls, repeats):
    """Best-of-``repeats`` wall time over all calls; returns (time, nodes)."""
    best = float("inf")
    nodes = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        nodes = fn(calls)
        best = min(best, time.perf_counter() - t0)
    return best, nodes


def test_mc_latency_vs_shell_matrix(benchmark):
    calls = _calls()
    t_sat, got = _best_time(_run_allocator, calls, repeats=5)
    t_oracle, expected = _best_time(_run_oracle, calls, repeats=3)
    # Determinism gate: identical node arrays, rank order included.
    assert len(got) == len(expected) == len(calls)
    for nodes, reference in zip(got, expected, strict=True):
        assert np.array_equal(nodes, reference)
    speedup = t_oracle / t_sat
    per_call_sat = t_sat / len(calls) * 1e6
    per_call_oracle = t_oracle / len(calls) * 1e6
    mean_free = np.mean([machine.n_free for machine, _, _ in calls])
    benchmark.extra_info["us_per_call_sat"] = round(per_call_sat, 1)
    benchmark.extra_info["us_per_call_oracle"] = round(per_call_oracle, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n[mc/mc1x1, {len(calls)} calls, mean {mean_free:.0f} free] "
        f"summed-area table {per_call_sat:.0f} us/call, shell matrix "
        f"{per_call_oracle:.0f} us/call, speedup {speedup:.1f}x (floor {FLOOR}x)"
    )
    assert speedup >= FLOOR, (
        f"MC scoring only {speedup:.1f}x the F x F shell matrix "
        f"(regression floor {FLOOR}x)"
    )
    # One timed round for the pytest-benchmark table.
    benchmark.pedantic(_run_allocator, args=(calls,), rounds=1, iterations=1)
