"""Shared machinery for the trace-driven figures.

A sweep runs every (allocator, load factor) cell for one mesh and one
communication pattern on the same trace, exactly as the paper's graphs are
organised: the x-axis is the load factor ("decreasing"), the y-axis the
mean job response time, one series per allocation strategy.

Each trace-driven figure's grid is declared once, in its bundled campaign
file (``src/repro/campaign/data/``); :func:`run_figure_campaign` runs it
through the campaign loop on the parallel experiment engine
(:mod:`repro.runner`): ``jobs=N`` fans the grid out over worker processes
and ``cache=ResultCache(...)`` makes repeated runs free.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from repro.campaign import bundled_campaign_path, load_campaign, run_campaign
from repro.campaign.model import TraceSource
from repro.campaign.runner import CampaignRun
from repro.experiments.config import Scale
from repro.runner import ResultCache
from repro.sched.job import Job
from repro.sched.stats import RunSummary
from repro.trace.archive import trace_rows

__all__ = [
    "SweepResult",
    "run_figure_campaign",
    "report_sweep",
    "PAPER_ALLOCATORS",
    "PAPER_PATTERNS",
]

#: The nine strategies of Figs 7/8, in the paper's legend order.
PAPER_ALLOCATORS = (
    "mc",
    "mc1x1",
    "gen-alg",
    "s-curve",
    "s-curve+bf",
    "hilbert",
    "hilbert+bf",
    "h-indexing",
    "h-indexing+bf",
)

#: The three patterns of Figs 7/8, in panel order (a), (b), (c).
PAPER_PATTERNS = ("all-to-all", "n-body", "random")


@dataclass
class SweepResult:
    """All cells of one figure panel (one mesh, one pattern)."""

    mesh_shape: tuple[int, ...]
    pattern: str
    cells: list[RunSummary] = field(default_factory=list)
    torus: bool = False

    def series(self, metric: str = "mean_response") -> dict[str, list[tuple[float, float]]]:
        """Per-allocator (load, metric) series, loads descending as plotted."""
        out: dict[str, list[tuple[float, float]]] = {}
        for cell in self.cells:
            out.setdefault(cell.allocator, []).append(
                (cell.load_factor, getattr(cell, metric))
            )
        for values in out.values():
            values.sort(key=lambda lv: -lv[0])
        return out


def run_figure_campaign(
    name: str,
    scale: Scale,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
    trace: list[Job] | None = None,
) -> CampaignRun:
    """Run a figure's bundled campaign at ``scale``.

    The sweep figures regroup the returned run into panels with
    :meth:`~repro.campaign.runner.CampaignRun.sweep_results`; the others
    read its per-cell ``results``.

    ``trace`` (the jobs of an SWF log) replaces the campaign's workload
    axis and is replayed as recorded: its rows are interned as a ``ref``
    workload, which the archive pipeline never renumbers, rescales or
    truncates.  A ref workload lives in a cache's workload store, so
    without a cache the rows go to a throwaway cache root that is
    removed on return.
    """
    campaign = load_campaign(bundled_campaign_path(name)).scaled(scale, seed)
    if trace is not None:
        if cache is None:
            with tempfile.TemporaryDirectory(prefix="repro-trace-") as root:
                return run_figure_campaign(
                    name, scale, seed, jobs, ResultCache(root), tier, trace
                )
        digest = cache.traces.put(trace_rows(trace))
        campaign.axes["workload"] = [TraceSource(kind="ref", digest=digest)]
    return run_campaign(campaign, cache=cache, jobs=jobs, tier=tier)


def report_sweep(results: list[SweepResult], metric: str = "mean_response") -> str:
    """Text report: one table per pattern, allocators x loads."""
    from repro.analysis.tables import format_table

    blocks = []
    for result in results:
        series = result.series(metric)
        loads = sorted({c.load_factor for c in result.cells}, reverse=True)
        rows = []
        for name in series:
            row = {"allocator": name}
            for load, value in series[name]:
                row[f"load {load:g}"] = value
            rows.append(row)
        rows.sort(key=lambda r: r.get(f"load {loads[0]:g}", float("inf")))
        label = "x".join(str(n) for n in result.mesh_shape)
        kind = "torus" if result.torus else "mesh"
        blocks.append(
            format_table(
                rows,
                columns=["allocator"] + [f"load {load:g}" for load in loads],
                float_fmt=".1f",
                title=f"{metric} -- {label} {kind}, {result.pattern} pattern",
            )
        )
    return "\n\n".join(blocks)
