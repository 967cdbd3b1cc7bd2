"""Extension: the paper's "harness the strengths" hybrid strategy.

Section 5 closes: "Obviously, the ideal is to find a general purpose
allocation algorithm that works reasonably well for all types of problems,
but a strategy to harness the strengths of different algorithms would also
be useful."

This experiment evaluates that proposal on a *mixed* workload -- each trace
job communicates with either the all-to-all or the n-body pattern (seeded
50/50 split) -- comparing the pattern-dispatching
:class:`~repro.core.hybrid.HybridAllocator` against the fixed strategies.
This goes beyond the paper (its experiments give every job the same
pattern), so it is labelled an extension in docs/substitutions.md
section 4.  The grid is declared once, in
``repro/campaign/data/hybrid.toml``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import run_figure_campaign
from repro.runner import ResultCache, mixed_pattern_selector
from repro.sched.stats import RunSummary

__all__ = ["run", "report", "HybridResult", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over; its allocator axis lists
#: the hybrid and the fixed strategies it competes with.
CAMPAIGN = "hybrid"


@dataclass
class HybridResult:
    """Mixed-workload comparison cells, one per allocator."""

    cells: list[RunSummary]
    pattern_split: dict[str, int]


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
) -> HybridResult:
    """Run the mixed workload under every competitor."""
    crun = run_figure_campaign(CAMPAIGN, scale, seed, jobs, cache, tier)
    # Every cell replays the same jobs, each with the pattern the seeded
    # selector gives its id.
    spec = crun.results[0].spec
    select = mixed_pattern_selector(spec.seed)
    split = Counter(select(job).name for job in spec.build_jobs())
    return HybridResult(cells=[r.summary for r in crun.results], pattern_split=dict(split))


def report(result: HybridResult) -> str:
    """Comparison table, best mean response first."""
    rows = [
        {
            "allocator": c.allocator,
            "mean_response": c.mean_response,
            "mean_stretch": c.mean_stretch,
            "pct_contiguous": 100 * c.fraction_contiguous,
        }
        for c in result.cells
    ]
    rows.sort(key=lambda r: r["mean_response"])
    split = ", ".join(f"{k}: {v}" for k, v in sorted(result.pattern_split.items()))
    return format_table(
        rows,
        title=f"Hybrid allocation on a mixed workload ({split})",
        float_fmt=".2f",
    )
