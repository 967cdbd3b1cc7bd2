"""Fig 12 (extension): response time vs. load on an 8x8x8 torus.

The paper's Fig 7 methodology -- replay the SDSC Paragon trace at load
factors 1 .. 0.2, one panel per communication pattern, one series per
allocation strategy, mean job response time on the y-axis -- is applied
unchanged to the 3-D torus of a Cplant-class machine:

* **Machine.**  An 8x8x8 torus (512 processors) instead of the 16x22
  mesh: the same order of magnitude as the paper's machines, but with the
  wraparound links and the extra dimension that real Cplant-family
  hardware had.  Messages use dimension-ordered x-y-z routing, the 3-D
  analogue of the paper's x-y routing, taking the shorter way around each
  wrap.
* **Workload.**  The identical synthetic SDSC trace pipeline (same seed,
  same load-factor contraction); no jobs are oversized for 512 nodes, so
  the trace matches Fig 7's except for the three 320-node jobs that the
  16x16 run of Fig 8 had to drop.
* **Strategies.**  The subset of the paper's one-dimensional-reduction
  strategies with a 3-D ordering (see :mod:`repro.core.curves3d`):
  row-major, the 3-D boustrophedon S-curve, and the 3-D Hilbert curve
  truncated from the enclosing 2^k cube -- each with the sorted free list
  and with Best Fit (plus Hilbert + First Fit, the Fig 11 row).  Shell
  (MC) and submesh strategies are 2-D constructions and refuse 3-D
  meshes, exactly as Fig 7 omits strategies that do not apply.
* **Comparison.**  A second sweep on the paper's 16x16 mesh with the same
  strategy subset feeds the dimensionality-comparison table
  (:func:`repro.analysis.tables.format_mesh_comparison`): same trace, same
  allocator, 2-D mesh vs. 3-D torus -- the "which strategies win when the
  topology grows a dimension" question the 3-D related work raises.

Like Figs 7/8 this rides the parallel experiment engine: ``--jobs`` fans
the grid out over workers and repeated runs are served from
``.repro-cache/``.

Since the campaign refactor this driver is a thin shim over the bundled
campaign file ``repro/campaign/data/fig12.toml`` (identical specs and
golden numbers -- pinned by ``tests/campaign/test_bundled.py``).
"""

from __future__ import annotations

from repro.experiments.config import SMALL, Scale
from repro.experiments.sweep import SweepResult, report_sweep, run_figure_campaign
from repro.runner import ResultCache

__all__ = ["run", "report", "CAMPAIGN"]

#: Bundled campaign this driver is a shim over.
CAMPAIGN = "fig12"


def run(
    scale: Scale = SMALL,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    tier: str | None = None,
) -> dict[str, list[SweepResult]]:
    """All three torus panels plus the 16x16 reference sweep.

    Returns ``{"torus": [SweepResult per pattern], "mesh2d": [...]}``; the
    reference sweep restricts to the same 3-D-capable allocator subset so
    the comparison table is cell-for-cell aligned.
    """
    groups = run_figure_campaign(
        CAMPAIGN, scale, seed, jobs, cache, tier
    ).sweep_results()
    return {"torus": groups["8x8x8t"], "mesh2d": groups["16x16"]}


def report(results: dict[str, list[SweepResult]]) -> str:
    """Torus panel tables plus the 2-D-vs-3-D comparison table."""
    from repro.analysis.tables import format_mesh_comparison

    blocks = [report_sweep(results["torus"])]
    blocks.append(format_mesh_comparison(results["mesh2d"], results["torus"]))
    return "\n\n".join(blocks)
