"""Fig 11: percent of jobs allocated contiguously & average components.

"Figure 11 shows the percentage of jobs allocated contiguously and the
average number of components into which jobs were allocated ... for
all-to-all communication on a 16x16 mesh with load 1.0."

Twelve strategies: the three curves with Best Fit, First Fit, and the
sorted free list, plus MC, MC1x1, and Gen-Alg.  The paper's headline:
"the curve-based strategies allocate into fewer components than the
others" -- yet neither contiguity metric explains the response-time
orderings, which is Section 4.3's point.

The grid is declared once, in ``repro/campaign/data/fig11.toml``; this
driver runs it and prints the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import run_figure_campaign
from repro.runner import ResultCache
from repro.sched.stats import RunSummary

__all__ = ["run", "report", "Fig11Result", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over; its allocator axis lists
#: the twelve rows of the paper's table.
CAMPAIGN = "fig11"


@dataclass
class Fig11Result:
    """One RunSummary per allocator (16x16, all-to-all, load 1.0)."""

    cells: list[RunSummary]

    def rows(self) -> list[dict]:
        """Table rows sorted by percent contiguous, descending (as printed
        in the paper)."""
        rows = [
            {
                "Algorithm": c.allocator,
                "% contiguous": 100.0 * c.fraction_contiguous,
                "Ave. components": c.mean_components,
            }
            for c in self.cells
        ]
        rows.sort(key=lambda r: -r["% contiguous"])
        return rows


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
) -> Fig11Result:
    """Run the twelve allocators on the Fig 8 all-to-all load-1.0 cell."""
    crun = run_figure_campaign(CAMPAIGN, scale, seed, jobs, cache, tier)
    return Fig11Result(cells=[r.summary for r in crun.results])


def report(result: Fig11Result) -> str:
    """The Fig 11 table."""
    return format_table(
        result.rows(),
        columns=["Algorithm", "% contiguous", "Ave. components"],
        float_fmt=".2f",
        title="Fig 11 -- contiguity, all-to-all on 16x16 at load 1.0",
    )
