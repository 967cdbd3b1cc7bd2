"""figswf (extension): the Figs 7/8 sweep driven by a *real* SWF trace.

The paper's headline figures replay the SDSC Paragon NQS log; the other
sweep drivers substitute a moment-matched synthetic trace because the
original file cannot be redistributed.  This driver closes that loop: it
ingests an actual Standard Workload Format log through the archive
pipeline (:mod:`repro.trace.archive`) -- sentinel handling, size
normalisation against the machine, load-invariant time scaling -- interns
the prepared trace once into the content-addressed workload store, and
sweeps it over two machines:

* the paper's **16x16 mesh** (Fig 8's square machine), and
* the extension's **8x8x8 torus** (fig12's Cplant-class 3-D machine),

with the 3-D-capable allocator subset so the machine-comparison table is
cell-for-cell aligned.  Every cell references the trace by digest, so the
full grid ships a few hundred bytes per worker dispatch and the cache
artifacts stay small no matter how long the log is.

By default the driver runs the bundled deterministic mini-SWF fixture
(:func:`repro.trace.archive.bundled_mini_swf`), which makes the golden
snapshot and the CI ingestion smoke job network-free::

    python -m repro.experiments figswf --scale small --jobs 4

Point it at a real archive download to reproduce at full scale::

    python -m repro.experiments figswf --scale full --jobs 8 \
        --trace SDSC-Par-1996-3.1-cln.swf

The grid is declared once, in ``repro/campaign/data/figswf.toml``; an
explicit ``--trace`` file takes the place of the bundled fixture's
``path`` there, so both run the same cells (and share cache keys when
the logs prepare to the same rows).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import SweepResult
from repro.runner import ResultCache
from repro.trace.archive import NormalizeReport
from repro.trace.swf import SwfParseReport

__all__ = ["run", "report", "FigSwfResult", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over.
CAMPAIGN = "figswf"


@dataclass
class FigSwfResult:
    """Both machine sweeps plus the ingestion accounting."""

    mesh2d: list[SweepResult]
    torus: list[SweepResult]
    n_jobs: int
    digest: str
    parse: SwfParseReport | None
    normalize: NormalizeReport


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    swf_path=None,
    tier: str | None = None,
) -> FigSwfResult:
    """Sweep a real SWF trace over the 16x16 mesh and the 8x8x8 torus.

    Parameters
    ----------
    scale:
        Truncates the log to ``scale.n_jobs`` arrivals and applies
        ``scale.runtime_scale`` to runtimes and interarrivals (offered
        load invariant); ``full`` replays the log as recorded.
    seed:
        Per-job pattern randomness (the trace itself is fixed).
    jobs / cache:
        Parallel engine fan-out and artifact cache.  The prepared trace
        is interned into the cache's workload store -- without a cache,
        into the run's throwaway store -- and every spec references it
        by digest.
    swf_path:
        SWF file to ingest in place of the bundled mini fixture; a
        relative path resolves against the working directory.
    """
    from repro.campaign import bundled_campaign_path, load_campaign, run_campaign

    campaign = load_campaign(bundled_campaign_path(CAMPAIGN)).scaled(scale, seed)
    if swf_path is not None:
        (source,) = campaign.axes["workload"]
        campaign.axes["workload"] = [
            replace(source, path=str(Path(swf_path).resolve()))
        ]
    crun = run_campaign(campaign, cache=cache, jobs=jobs, tier=tier)
    groups = crun.sweep_results()
    (info,) = crun.expansion.sources.values()
    return FigSwfResult(
        mesh2d=groups["16x16"],
        torus=groups["8x8x8t"],
        n_jobs=info.n_jobs,
        digest=info.digest,
        parse=info.parse,
        normalize=info.normalize,
    )


def report(result: FigSwfResult) -> str:
    """Ingestion accounting, both panel tables, and the machine comparison."""
    from repro.analysis.tables import format_mesh_comparison
    from repro.experiments.sweep import report_sweep

    header = [f"real-SWF sweep over {result.n_jobs} jobs"]
    if result.parse is not None:
        header.append(f"parse: {result.parse.summary()}")
    header.append(f"prepare: {result.normalize.summary()}")
    header.append(f"interned as {result.digest[:12]}… (specs reference it by digest)")
    blocks = [
        "\n".join(header),
        report_sweep(result.mesh2d),
        report_sweep(result.torus),
        format_mesh_comparison(result.mesh2d, result.torus),
    ]
    return "\n\n".join(blocks)
