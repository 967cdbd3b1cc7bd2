"""Extension: quantify the paper's case against contiguous allocation.

Section 2: requiring convex/contiguous allocations "reduces system
utilization to levels unacceptable for any government-audited system" --
the motivation for every noncontiguous strategy the paper studies.  This
experiment replays the trace under the classic first-fit-submesh contiguous
baseline and under Hilbert + Best Fit, and reports the queueing cost of
contiguity (jobs wait for a free rectangle even when enough processors are
free).  The two cells are declared in ``repro/campaign/data/contiguous.toml``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import run_figure_campaign
from repro.runner import ResultCache
from repro.sched.stats import RunSummary

__all__ = ["run", "report", "ContiguousResult", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over.
CAMPAIGN = "contiguous"


@dataclass
class ContiguousResult:
    """Contiguous baseline vs the paper's best noncontiguous strategy."""

    contiguous: RunSummary
    noncontiguous: RunSummary
    utilization: dict[str, float]


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
) -> ContiguousResult:
    """Replay the all-to-all trace under both allocation disciplines."""
    crun = run_figure_campaign(CAMPAIGN, scale, seed, jobs, cache, tier)
    contiguous, noncontiguous = crun.results
    return ContiguousResult(
        contiguous=contiguous.summary,
        noncontiguous=noncontiguous.summary,
        utilization={
            "contiguous": contiguous.to_simulation_result().mean_utilization(),
            "noncontiguous": noncontiguous.to_simulation_result().mean_utilization(),
        },
    )


def report(result: ContiguousResult) -> str:
    """Side-by-side table plus the waiting-time penalty."""
    rows = []
    for cell in (result.noncontiguous, result.contiguous):
        rows.append(
            {
                "allocator": cell.allocator,
                "mean_response": cell.mean_response,
                "mean_wait": cell.mean_wait,
                "mean_stretch": cell.mean_stretch,
                "makespan": cell.makespan,
                "pct_contiguous": 100 * cell.fraction_contiguous,
            }
        )
    penalty = (
        result.contiguous.mean_wait / result.noncontiguous.mean_wait
        if result.noncontiguous.mean_wait > 0
        else float("inf")
    )
    table = format_table(
        rows,
        title="Contiguous (first-fit submesh) vs noncontiguous (hilbert+bf), "
        "all-to-all trace",
        float_fmt=".1f",
    )
    return (
        table
        + f"\nqueueing penalty of contiguity: {penalty:.2f}x mean wait; "
        f"time-averaged utilization {100 * result.utilization['contiguous']:.1f}% "
        f"vs {100 * result.utilization['noncontiguous']:.1f}% noncontiguous "
        "(the Section 2 argument)"
    )
