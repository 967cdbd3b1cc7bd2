"""End-to-end checks of the paper's robust qualitative claims.

Small-but-not-tiny trace runs asserting only the findings that survive
reduced scale (the figure-level reproductions live in ``benchmarks/`` and
EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.patterns.base import get_pattern
from repro.sched.simulator import Simulation
from repro.sched.stats import summarize
from repro.trace.synthetic import apply_load_factor, drop_oversized, sdsc_paragon_trace


@pytest.fixture(scope="module")
def jobs16():
    trace = sdsc_paragon_trace(seed=11, n_jobs=200, runtime_scale=0.02)
    return drop_oversized(trace, 256)


def run_cell(jobs, allocator, pattern, load=1.0, mesh=None):
    mesh = mesh or Mesh(16, 16)
    sim = Simulation(
        mesh,
        make_allocator(allocator),
        get_pattern(pattern),
        apply_load_factor(jobs, load),
        seed=11,
        load_factor=load,
    )
    return summarize(sim.run())


class TestHeadlineClaims:
    def test_relative_performance_varies_with_pattern(self, jobs16):
        """The paper's core finding: allocator rankings depend on the
        communication pattern (service-stretch rankings differ)."""
        names = ("gen-alg", "hilbert+bf", "s-curve")
        rankings = {}
        for pattern in ("all-to-all", "n-body"):
            cells = {n: run_cell(jobs16, n, pattern).mean_stretch for n in names}
            rankings[pattern] = sorted(names, key=lambda n: cells[n])
        assert rankings["all-to-all"] != rankings["n-body"]

    def test_gen_alg_good_for_alltoall_bad_for_nbody(self, jobs16):
        """Gen-Alg minimises pairwise distance (== all-to-all message
        distance) but scatters the n-body ring."""
        a2a_gen = run_cell(jobs16, "gen-alg", "all-to-all").mean_stretch
        a2a_hil = run_cell(jobs16, "hilbert+bf", "all-to-all").mean_stretch
        nb_gen = run_cell(jobs16, "gen-alg", "n-body").mean_stretch
        nb_hil = run_cell(jobs16, "hilbert+bf", "n-body").mean_stretch
        # gen-alg competitive for all-to-all ...
        assert a2a_gen < a2a_hil * 1.1
        # ... and clearly worse than Hilbert+BF for n-body.
        assert nb_gen > nb_hil * 1.1

    def test_curve_plus_bf_strong_for_nbody(self, jobs16):
        """Paper Fig 8(b): curves with Best Fit head the n-body ordering."""
        stretches = {
            name: run_cell(jobs16, name, "n-body").mean_stretch
            for name in ("hilbert+bf", "h-indexing+bf", "mc", "mc1x1", "gen-alg")
        }
        best_curve = min(stretches["hilbert+bf"], stretches["h-indexing+bf"])
        for other in ("mc", "mc1x1", "gen-alg"):
            assert best_curve < stretches[other]

    def test_load_contraction_raises_response(self, jobs16):
        """Figs 7/8 x-axis: response rises as the load factor shrinks."""
        relaxed = run_cell(jobs16, "hilbert+bf", "all-to-all", load=1.0)
        contracted = run_cell(jobs16, "hilbert+bf", "all-to-all", load=0.2)
        assert contracted.mean_response > relaxed.mean_response

    def test_contiguity_curve_bf_beats_plain(self, jobs16):
        """Fig 11: packing heuristics raise contiguity over the free list."""
        bf = run_cell(jobs16, "hilbert+bf", "all-to-all")
        plain = run_cell(jobs16, "hilbert", "all-to-all")
        assert bf.fraction_contiguous > plain.fraction_contiguous

    def test_16x22_and_16x16_differ(self, jobs16):
        """The truncated-curve mesh produces different behaviour (Sect 4)."""
        trace = sdsc_paragon_trace(seed=11, n_jobs=200, runtime_scale=0.02)
        square = run_cell(jobs16, "hilbert", "n-body")
        rect = run_cell(
            drop_oversized(trace, 352),
            "hilbert",
            "n-body",
            mesh=Mesh(16, 22),
        )
        assert square.mean_stretch != pytest.approx(rect.mean_stretch, rel=1e-3)


class TestSchedulerInvariantsAtScale:
    def test_all_jobs_complete_across_allocators(self, jobs16):
        for name in ("mc", "gen-alg", "s-curve+ff", "h-indexing+ss"):
            summary = run_cell(jobs16, name, "random")
            assert summary.n_jobs == len(jobs16)

    def test_identical_admission_order_across_allocators(self, jobs16):
        """All s=0 allocators admit whenever enough processors are free, so
        every strategy starts jobs in the same order."""
        orders = {}
        for name in ("hilbert+bf", "mc1x1"):
            mesh = Mesh(16, 16)
            sim = Simulation(
                mesh,
                make_allocator(name),
                get_pattern("ring"),
                jobs16,
                seed=11,
            )
            result = sim.run()
            orders[name] = [
                j.job_id for j in sorted(result.jobs, key=lambda r: (r.start, r.job_id))
            ]
        assert orders["hilbert+bf"] == orders["mc1x1"]
