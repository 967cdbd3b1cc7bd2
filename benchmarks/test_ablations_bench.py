"""Ablation benches for the design choices docs/substitutions.md
section 4 lists.

* S-curve run direction on the 16x22 mesh -- the paper: "such a mesh
  presents the choice of whether the long part of each curve will move in
  the longer or shorter direction.  Quick simulations seemed to indicate
  that the short direction is better so we used this convention."
* Page size s > 0 -- the fragmentation the paper avoids by fixing s = 0.
* Bin-selection policy spread (free list / FF / BF / Sum-of-Squares) --
  Section 2.1 reports the choice of curve dominates the choice of policy.
* Fluid-engine contention factor -- the reproduction-specific knob.
"""

import numpy as np

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.network.fluid import NetworkParams
from repro.patterns.base import get_pattern
from repro.sched.simulator import Simulation
from repro.sched.stats import summarize
from repro.trace.synthetic import drop_oversized, sdsc_paragon_trace


def _jobs(scale, mesh):
    return drop_oversized(
        sdsc_paragon_trace(
            seed=scale.seed, n_jobs=scale.n_jobs, runtime_scale=scale.runtime_scale
        ),
        mesh.n_nodes,
    )


def _run_cell(mesh, allocator, jobs, scale, pattern="all-to-all", params=None):
    sim = Simulation(
        mesh,
        allocator,
        get_pattern(pattern),
        jobs,
        params=params or scale.network_params(),
        seed=scale.seed,
    )
    return summarize(sim.run())


def test_ablation_scurve_run_direction(run_once, scale):
    """Short- vs long-direction S-curve on 16x22 (paper's quick sims)."""
    mesh = Mesh(16, 22)
    jobs = _jobs(scale, mesh)

    def both():
        short = _run_cell(mesh, make_allocator("s-curve+bf"), jobs, scale)
        long_ = _run_cell(
            mesh, make_allocator("s-curve+bf", runs="long"), jobs, scale
        )
        return short, long_

    short, long_ = run_once(both)
    print(
        f"\nS-curve runs: short dir stretch={short.mean_stretch:.3f} "
        f"response={short.mean_response:.0f} | long dir "
        f"stretch={long_.mean_stretch:.3f} response={long_.mean_response:.0f}"
    )
    assert short.n_jobs == long_.n_jobs


def test_ablation_page_size_fragmentation(run_once, scale):
    """s=1 pages hold whole 2x2 blocks: fragmentation the paper avoids."""
    mesh = Mesh(16, 16)
    jobs = _jobs(scale, mesh)

    def both():
        s0 = _run_cell(mesh, make_allocator("hilbert+bf"), jobs, scale)
        s1 = _run_cell(
            mesh, make_allocator("hilbert+bf", page_size=1), jobs, scale
        )
        return s0, s1

    s0, s1 = run_once(both)
    print(
        f"\npage size: s=0 response={s0.mean_response:.0f} | "
        f"s=1 response={s1.mean_response:.0f} "
        f"(internal fragmentation rounds every job up to whole pages)"
    )
    # Holding whole pages can only hurt (or tie) queueing.
    assert s1.mean_response >= 0.8 * s0.mean_response


def test_ablation_bin_policy_spread_vs_curve_spread(run_once, scale):
    """Paper: "the choice of curve seems to have the dominant effect"."""
    mesh = Mesh(16, 16)
    jobs = _jobs(scale, mesh)

    def grid():
        out = {}
        for curve in ("s-curve", "hilbert"):
            for policy in ("", "+ff", "+bf", "+ss"):
                name = curve + policy
                out[name] = _run_cell(
                    mesh, make_allocator(name), jobs, scale, pattern="n-body"
                )
        return out

    cells = run_once(grid)
    print()
    for name, cell in sorted(cells.items(), key=lambda kv: kv[1].mean_stretch):
        print(f"  {name:14s} stretch={cell.mean_stretch:.3f}")
    assert len(cells) == 8


def test_ablation_contention_factor(run_once, scale):
    """The reproduction's contention knob: stretch grows monotonically."""
    mesh = Mesh(16, 16)
    jobs = _jobs(scale, mesh)

    def sweep():
        out = []
        for gamma in (0.0, 1.0, 4.0):
            params = NetworkParams(contention_factor=gamma)
            cell = _run_cell(
                mesh, make_allocator("hilbert+bf"), jobs, scale, params=params
            )
            out.append((gamma, cell.mean_stretch))
        return out

    points = run_once(sweep)
    print("\ncontention factor -> stretch: " + str(points))
    stretches = [s for _, s in points]
    assert stretches == sorted(stretches)
