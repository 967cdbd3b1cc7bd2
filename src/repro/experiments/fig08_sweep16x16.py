"""Fig 8: response time vs. load on the 16x16 mesh.

Same grid as Fig 7 on the square mesh, "using the same trace except for
removing 3 jobs of 320 nodes each that are too large to fit the smaller
machine" -- :func:`repro.trace.synthetic.drop_oversized` inside each cell
does exactly that (the synthetic trace injects three 320-node jobs for the
purpose).  On the square power-of-two mesh the curves have no gaps, and the
paper finds Hilbert with Best Fit at or near the top for every pattern.

Like the Fig 7 driver, this is a thin shim over the bundled campaign file
``repro/campaign/data/fig08.toml`` (identical specs and cache keys --
pinned by ``tests/campaign/test_bundled.py``), adapted to
``--scale``/``--seed`` via :meth:`~repro.campaign.model.Campaign.scaled`.
"""

from __future__ import annotations

from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import SweepResult, report_sweep, run_figure_campaign
from repro.runner import ResultCache
from repro.sched.job import Job

__all__ = ["run", "report", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over.
CAMPAIGN = "fig08"


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
    trace: list[Job] | None = None,
) -> list[SweepResult]:
    """All three panels of Fig 8 (one SweepResult per pattern).

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
