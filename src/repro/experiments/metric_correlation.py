"""Figs 9 and 10: which dispersal metric predicts running time?

Section 4.3: "On the square mesh running n-body communication, we
considered instances of the largest jobs (128 processors) sending [a
narrow band of] messages. ... there is no clear relationship between
pairwise distance and running time for these jobs (Fig 9).  There is
however a reasonably tight relationship between running time and average
message distance (Fig 10)."

The driver runs the Fig 8 n-body configuration at load 1.0 for all nine
allocators (pooling instances exactly as the paper pools jobs from each
simulation), selects the 128-processor jobs, and correlates their running
times with both metrics.  Running times are normalised per message
(duration / quota) so reduced-scale traces -- whose quotas span a wider
band than the paper's 39,900-44,000 window -- remain comparable.

At reduced trace scale 128-node jobs are rare, so the driver raises the
share of 128-node jobs in the trace until ``scale.fig9_min_samples``
instances exist per simulation (a sample-count substitution only; the full
scale needs no boost).  The grid is declared in
``repro/campaign/data/fig09.toml``; the boosted trace replaces its workload
axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.correlation import LinearFit, linear_fit
from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import run_figure_campaign
from repro.mesh.topology import Mesh2D
from repro.runner import ResultCache
from repro.sched.job import Job
from repro.trace.synthetic import drop_oversized, sdsc_paragon_trace

__all__ = [
    "run", "report_fig9", "report_fig10", "CorrelationResult", "TARGET_SIZE", "CAMPAIGN"
]

TARGET_SIZE = 128  # "instances of the largest jobs (128 processors)"

#: Bundled campaign this driver is a shim over (its workload axis is
#: replaced by the boosted trace).
CAMPAIGN = "fig09"


@dataclass
class CorrelationResult:
    """Pooled scatter data for both metrics on the same jobs."""

    pairwise_hops: np.ndarray
    message_hops: np.ndarray
    time_per_message: np.ndarray
    allocators: list[str]
    n_jobs: int
    fit_pairwise: LinearFit
    fit_message: LinearFit

    @property
    def r_pairwise(self) -> float:
        """Fig 9 correlation (paper: weak/none)."""
        return self.fit_pairwise.r

    @property
    def r_message(self) -> float:
        """Fig 10 correlation (paper: tight)."""
        return self.fit_message.r


def _boosted_trace(scale: Scale, mesh: Mesh2D) -> list[Job]:
    """Trace with enough TARGET_SIZE jobs for a meaningful scatter."""
    base = drop_oversized(
        sdsc_paragon_trace(
            seed=scale.seed, n_jobs=scale.n_jobs, runtime_scale=scale.runtime_scale
        ),
        mesh.n_nodes,
    )
    have = sum(1 for j in base if j.size == TARGET_SIZE)
    need = scale.fig9_min_samples
    if have >= need:
        return base
    rng = np.random.default_rng(np.random.SeedSequence([scale.seed, 0xF19]))
    candidates = [i for i, j in enumerate(base) if j.size not in (TARGET_SIZE,)]
    promote = rng.choice(candidates, size=min(need - have, len(candidates)), replace=False)
    out = list(base)
    for i in promote:
        j = out[i]
        out[i] = Job(job_id=j.job_id, arrival=j.arrival, size=TARGET_SIZE, runtime=j.runtime)
    return out


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
) -> CorrelationResult:
    """Run the pooled n-body simulations and collect both scatters."""
    if seed is not None:
        scale = scale.with_seed(seed)
    trace = _boosted_trace(scale, Mesh2D(16, 16))
    crun = run_figure_campaign(CAMPAIGN, scale, None, jobs, cache, tier, trace)
    pairwise, message, tpm = [], [], []
    for cell in crun.results:
        for job in cell.jobs:
            if job.size != TARGET_SIZE:
                continue
            pairwise.append(job.pairwise_hops)
            message.append(job.message_hops)
            tpm.append(job.duration / job.quota)
    pairwise_arr = np.array(pairwise)
    message_arr = np.array(message)
    tpm_arr = np.array(tpm)
    return CorrelationResult(
        pairwise_hops=pairwise_arr,
        message_hops=message_arr,
        time_per_message=tpm_arr,
        allocators=[cell.spec.allocator for cell in crun.results],
        n_jobs=len(tpm_arr),
        fit_pairwise=linear_fit(pairwise_arr, tpm_arr),
        fit_message=linear_fit(message_arr, tpm_arr),
    )


def _scatter_block(x: np.ndarray, y: np.ndarray, x_label: str) -> list[str]:
    lines = [f"{x_label:>12s}  {'sec/message':>12s}"]
    order = np.argsort(x)
    for i in order:
        lines.append(f"{x[i]:12.2f}  {y[i]:12.3f}")
    return lines


def report_fig9(result: CorrelationResult) -> str:
    """Fig 9 scatter: pairwise distance vs running time."""
    lines = [
        f"Fig 9 -- running time vs average pairwise hops "
        f"({result.n_jobs} n-body jobs of {TARGET_SIZE} procs, 16x16, pooled "
        f"over {len(result.allocators)} allocators)",
        *_scatter_block(result.pairwise_hops, result.time_per_message, "pairwise hops"),
        f"Pearson r = {result.r_pairwise:.3f}  "
        f"(paper: no clear relationship)",
    ]
    return "\n".join(lines)


def report_fig10(result: CorrelationResult) -> str:
    """Fig 10 scatter: average message distance vs running time."""
    lines = [
        f"Fig 10 -- running time vs average message distance "
        f"(same {result.n_jobs} jobs as Fig 9)",
        *_scatter_block(result.message_hops, result.time_per_message, "message hops"),
        f"Pearson r = {result.r_message:.3f}  (paper: reasonably tight)",
        f"comparison: r_message={result.r_message:.3f} vs "
        f"r_pairwise={result.r_pairwise:.3f}",
    ]
    return "\n".join(lines)
