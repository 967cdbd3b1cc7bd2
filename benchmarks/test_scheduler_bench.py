"""Bench: FCFS vs EASY backfilling across allocators (extension).

The paper fixes FCFS ("since our focus is on allocation rather than
scheduling") and cites Krueger et al.'s finding that scheduling matters
more than allocation on hypercubes.  This bench quantifies that
interaction on our substrate: backfilling collapses the head-of-line
blocking that dominates FCFS response times, shrinking -- but not
erasing -- the differences between allocators.
"""

from repro.analysis.tables import format_table
from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.patterns.base import get_pattern
from repro.sched.simulator import Simulation
from repro.sched.stats import summarize
from repro.trace.synthetic import drop_oversized, sdsc_paragon_trace


def test_fcfs_vs_easy(run_once, scale):
    mesh = Mesh(16, 16)
    jobs = drop_oversized(
        sdsc_paragon_trace(
            seed=scale.seed, n_jobs=scale.n_jobs, runtime_scale=scale.runtime_scale
        ),
        mesh.n_nodes,
    )

    def grid():
        rows = []
        for name in ("hilbert+bf", "mc", "gen-alg"):
            row = {"allocator": name}
            for scheduler in ("fcfs", "easy"):
                sim = Simulation(
                    mesh,
                    make_allocator(name),
                    get_pattern("all-to-all"),
                    jobs,
                    seed=scale.seed,
                    scheduler=scheduler,
                )
                summary = summarize(sim.run())
                row[f"{scheduler} response"] = summary.mean_response
                row[f"{scheduler} wait"] = summary.mean_wait
            rows.append(row)
        return rows

    rows = run_once(grid)
    print()
    print(format_table(rows, title="FCFS vs EASY backfilling", float_fmt=".1f"))
    for row in rows:
        # Backfilling must not make mean response meaningfully worse.
        assert row["easy response"] <= row["fcfs response"] * 1.05
