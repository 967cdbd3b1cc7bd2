"""Fig 7: response time vs. load on the 16x22 mesh.

"Figure 7 shows the results for trace on 16x22 mesh for various
communication patterns. (a) All-to-all (b) N-body (c) Random."

The 16x22 mesh matches the SDSC Paragon partition that generated the
trace; the Hilbert and H-indexing orderings are truncated 32x32 curves with
gaps along the top (Fig 6), which is why panel orderings differ from the
square-mesh results of Fig 8.

Since the campaign refactor this driver is a thin shim over the bundled
campaign file ``repro/campaign/data/fig07.toml``: the panel grid is
declared as data, expanded through :mod:`repro.campaign` (identical
specs, cache keys and golden numbers -- pinned by
``tests/campaign/test_bundled.py``) and adapted to ``--scale``/``--seed``
via :meth:`~repro.campaign.model.Campaign.scaled`.
"""

from __future__ import annotations

from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import SweepResult, report_sweep, run_figure_campaign
from repro.runner import ResultCache
from repro.sched.job import Job

__all__ = ["run", "report", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over.
CAMPAIGN = "fig07"


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
    trace: list[Job] | None = None,
) -> list[SweepResult]:
    """All three panels of Fig 7 (one SweepResult per pattern).

    ``trace`` replays an SWF log's jobs, as recorded, in place of the
    synthetic workload (see :func:`~repro.experiments.sweep.run_figure_campaign`).
    """
    (panels,) = run_figure_campaign(
        CAMPAIGN, scale, seed, jobs, cache, tier, trace
    ).sweep_results().values()
    return panels


def report(results: list[SweepResult]) -> str:
    """The panel tables (mean response time per allocator and load)."""
    return report_sweep(results)
