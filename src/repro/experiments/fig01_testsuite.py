"""Fig 1: running time vs. average pairwise distance (Cplant test suite).

The paper's Fig 1 plots hardware measurements by Leung et al.: 30-processor
jobs running "all-to-all broadcast, all-pairs ping-pong ..., and ring
communication", each repeated 100 times, against the average number of hops
between the job's processors.  Running time grows with dispersal.

We reproduce the relationship on the flit-level microsimulator (docs/substitutions.md
substitution #3): allocations of controlled dispersal are generated by
starting from a compact (Hilbert + Best Fit) 30-processor placement on the
16x22 mesh and relocating a growing fraction of its processors uniformly at
random; each allocation runs the same composite test suite alone, and we
record (average pairwise hops, simulated running time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.correlation import LinearFit, linear_fit
from repro.core.base import Request
from repro.core.metrics import average_pairwise_hops
from repro.core.registry import make_allocator
from repro.experiments.config import SMALL, Scale
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.network.flit import FlitNetwork, FlitParams
from repro.patterns.composite import CplantTestSuite

__all__ = ["run", "report", "Fig1Result", "JOB_SIZE"]

JOB_SIZE = 30  # "Each plotted job uses 30 processors"


@dataclass
class Fig1Result:
    """Scatter points and fit for the dispersal/running-time relationship."""

    pairwise_hops: np.ndarray
    running_time: np.ndarray
    fit: LinearFit
    repetitions: int
    mesh_shape: tuple[int, int]


def _dispersed_allocation(
    mesh: Mesh, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Compact 30-node placement with ``fraction`` of nodes scattered."""
    machine = Machine(mesh)
    base = make_allocator("hilbert+bf").allocate(
        Request(size=JOB_SIZE, job_id=0), machine
    )
    nodes = base.nodes.copy()
    n_move = int(round(fraction * JOB_SIZE))
    if n_move == 0:
        return nodes
    move_idx = rng.choice(JOB_SIZE, size=n_move, replace=False)
    outside = np.setdiff1d(np.arange(mesh.n_nodes), nodes)
    targets = rng.choice(outside, size=n_move, replace=False)
    nodes[move_idx] = targets
    return nodes


def run(scale: Scale = SMALL, seed: int | None = None) -> Fig1Result:
    """Simulate the test suite over allocations of growing dispersal."""
    rng = np.random.default_rng(scale.seed if seed is None else seed)
    mesh = Mesh(16, 22)
    net = FlitNetwork(mesh, FlitParams())
    suite = CplantTestSuite(repetitions=scale.fig1_repetitions)
    rounds = suite.rounds(JOB_SIZE)

    fractions = np.linspace(0.0, 0.8, scale.fig1_samples)
    hops = []
    times = []
    for fraction in fractions:
        nodes = _dispersed_allocation(mesh, float(fraction), rng)
        finish = net.run_bsp({0: (nodes, rounds)}, message_flits=64)
        hops.append(average_pairwise_hops(mesh, nodes))
        times.append(finish[0])
    hops_arr = np.array(hops)
    times_arr = np.array(times)
    return Fig1Result(
        pairwise_hops=hops_arr,
        running_time=times_arr,
        fit=linear_fit(hops_arr, times_arr),
        repetitions=scale.fig1_repetitions,
        mesh_shape=mesh.shape,
    )


def report(result: Fig1Result) -> str:
    """Scatter table plus the fitted relationship."""
    lines = [
        "Fig 1 -- running time vs average pairwise hops "
        f"(30-proc Cplant test suite x{result.repetitions}, "
        f"{result.mesh_shape[0]}x{result.mesh_shape[1]} mesh, flit engine)",
        f"{'avg hops':>10s}  {'running time (s)':>18s}",
    ]
    order = np.argsort(result.pairwise_hops)
    for i in order:
        lines.append(
            f"{result.pairwise_hops[i]:10.2f}  {result.running_time[i]:18.1f}"
        )
    lines.append(
        f"linear fit: time = {result.fit.slope:.1f} * hops + "
        f"{result.fit.intercept:.1f}   (r = {result.fit.r:.3f})"
    )
    return "\n".join(lines)
