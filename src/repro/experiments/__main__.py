"""Command-line runner for the experiment drivers.

Examples::

    python -m repro.experiments list
    python -m repro.experiments fig6
    python -m repro.experiments fig8 --scale medium --seed 3
    python -m repro.experiments all --scale small
    python -m repro.experiments fig7 --trace /path/to/SDSC-Par-1996.swf

    # Parallel experiment engine: fan the figure grid out over 4 worker
    # processes.  Cell results are identical for any --jobs value.
    python -m repro.experiments fig7 --scale small --jobs 4

    # Results are cached under .repro-cache/ (override the location with
    # --cache-dir or $REPRO_CACHE_DIR), so repeating a sweep is free:
    python -m repro.experiments fig7 --scale small --jobs 4   # cache hits
    python -m repro.experiments fig8 --no-cache               # force recompute

``--trace`` feeds a real Standard Workload Format file (e.g. the actual
SDSC Paragon trace) to fig7/fig8, replayed as recorded in place of the
synthetic workload, and to figswf in place of its bundled fixture; a
relative path resolves against the working directory.  Either way the
file runs through the figure's bundled campaign, as a different value
of its ``workload`` axis.  ``--jobs``/``--no-cache``/``--cache-dir``/
``--tier`` apply to the trace-driven experiments (fig7, fig8, fig9/10,
fig11, fig12, figswf, hybrid, contiguous); the cheap closed-form figures
ignore them.  ``--tier`` selects the engine's execution tier (``auto``
by default: tiny pending grids run in-process, big ones fan out);
results are identical for every tier.

``fig12`` is the 3-D extension: the Fig 7 sweep on an 8x8x8 torus plus a
16x16-mesh comparison table (see ``repro.experiments.fig12_torus8``)::

    python -m repro.experiments fig12 --scale small --jobs 2

``figswf`` replays a *real* SWF log (bundled mini fixture by default,
``--trace`` for an actual Parallel Workloads Archive download) through
the archive-ingestion pipeline and both machines; the prepared trace is
interned once into ``.repro-cache/traces/`` and referenced by digest::

    python -m repro.experiments figswf --scale medium --jobs 4

Cache lifecycle tooling lives in ``python -m repro.runner``
(``ls`` / ``prune --older-than DAYS | --max-mb N | --spec-substr S`` /
``vacuum``).

Every trace-driven experiment is a thin shim over a bundled *campaign
file* (``src/repro/campaign/data/``): ``fig7``/``fig8``/``fig12``/
``figswf`` over ``fig07``/``fig08``/``fig12``/``figswf``, ``fig9`` and
``fig10`` over ``fig09``, and ``fig11``/``hybrid``/``contiguous`` over
the files of the same names.  They are declarative grids you can copy,
edit and run directly with resumable manifests --
``python -m repro.campaign run|drain|status|expand|report CAMPAIGN``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import config
from repro.experiments import (
    contiguous_baseline,
    fig01_testsuite,
    fig02_curves,
    fig04_shells,
    fig05_nbody,
    fig06_truncation,
    fig07_sweep16x22,
    fig08_sweep16x16,
    fig11_contiguity,
    fig12_torus8,
    figswf_realtrace,
    hybrid_workload,
    metric_correlation,
)
from repro.runner import ResultCache
from repro.runner.cli import add_engine_flags, bad_jobs

__all__ = ["main", "EXPERIMENTS"]


def _read_swf(path):
    """The jobs of the ``--trace`` file, or ``None`` without one."""
    if path is None:
        return None
    from repro.trace.swf import read_swf

    return read_swf(path)


#: name -> (run(scale, seed, trace path, jobs, cache, tier), report(result), description)
EXPERIMENTS = {
    "fig1": (
        lambda s, seed, tr, j, c, t: fig01_testsuite.run(s, seed),
        fig01_testsuite.report,
        "running time vs pairwise distance (Cplant test suite, flit engine)",
    ),
    "fig2": (
        lambda s, seed, tr, j, c, t: fig02_curves.run(s, seed),
        fig02_curves.report,
        "S-curve / Hilbert / H-indexing renderings",
    ),
    "fig4": (
        lambda s, seed, tr, j, c, t: fig04_shells.run(s, seed),
        fig04_shells.report,
        "MC shells around a 3x1 request",
    ),
    "fig5": (
        lambda s, seed, tr, j, c, t: fig05_nbody.run(s, seed),
        fig05_nbody.report,
        "n-body message subphases for 15 processors",
    ),
    "fig6": (
        lambda s, seed, tr, j, c, t: fig06_truncation.run(s, seed),
        fig06_truncation.report,
        "truncated Hilbert / H-indexing on 16x22 with gaps",
    ),
    "fig7": (
        lambda s, seed, tr, j, c, t: fig07_sweep16x22.run(
            s, seed, jobs=j, cache=c, tier=t, trace=_read_swf(tr)
        ),
        fig07_sweep16x22.report,
        "response time vs load, 16x22 mesh, 3 patterns x 9 allocators",
    ),
    "fig8": (
        lambda s, seed, tr, j, c, t: fig08_sweep16x16.run(
            s, seed, jobs=j, cache=c, tier=t, trace=_read_swf(tr)
        ),
        fig08_sweep16x16.report,
        "response time vs load, 16x16 mesh, 3 patterns x 9 allocators",
    ),
    "fig9": (
        lambda s, seed, tr, j, c, t: metric_correlation.run(s, seed, jobs=j, cache=c, tier=t),
        metric_correlation.report_fig9,
        "running time vs pairwise distance (128-proc n-body jobs)",
    ),
    "fig10": (
        lambda s, seed, tr, j, c, t: metric_correlation.run(s, seed, jobs=j, cache=c, tier=t),
        metric_correlation.report_fig10,
        "running time vs average message distance (same jobs)",
    ),
    "fig11": (
        lambda s, seed, tr, j, c, t: fig11_contiguity.run(s, seed, jobs=j, cache=c, tier=t),
        fig11_contiguity.report,
        "percent contiguous & average components table",
    ),
    # Extensions beyond the paper's evaluation (docs/substitutions.md section 4).
    "fig12": (
        lambda s, seed, tr, j, c, t: fig12_torus8.run(s, seed, jobs=j, cache=c, tier=t),
        fig12_torus8.report,
        "EXTENSION: fig7-style sweep on an 8x8x8 torus + 16x16 comparison",
    ),
    "figswf": (
        lambda s, seed, tr, j, c, t: figswf_realtrace.run(
            s, seed, jobs=j, cache=c, swf_path=tr, tier=t
        ),
        figswf_realtrace.report,
        "EXTENSION: real-SWF-trace sweep, 16x16 mesh vs 8x8x8 torus "
        "(bundled mini fixture unless --trace)",
    ),
    "hybrid": (
        lambda s, seed, tr, j, c, t: hybrid_workload.run(s, seed, jobs=j, cache=c, tier=t),
        hybrid_workload.report,
        "EXTENSION: pattern-dispatching hybrid on a mixed workload",
    ),
    "contiguous": (
        lambda s, seed, tr, j, c, t: contiguous_baseline.run(s, seed, jobs=j, cache=c, tier=t),
        contiguous_baseline.report,
        "EXTENSION: convex-allocation baseline vs noncontiguous",
    ),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures/tables of Leung, Bunde & Mache "
        "(SAND2003-4522).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig1..fig12), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "medium", "full"],
        help="workload scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument(
        "--trace",
        default=None,
        help="SWF trace file to use instead of the synthetic workload "
        "(fig7/fig8) or the bundled mini fixture (figswf)",
    )
    add_engine_flags(
        parser,
        jobs=(
            1,
            "worker processes for the trace-driven experiment grids "
            "(default: 1 = serial; results are identical for any value)",
        ),
        no_cache="recompute every cell instead of reusing .repro-cache/ artifacts",
        tier="execution tier for the engine fan-out (default: auto -- "
        "tiny grids run in-process, big ones over workers); results are "
        "identical for every tier",
        cache_dir="result-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, _, desc) in EXPERIMENTS.items():
            print(f"{name:6s} {desc}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    if bad_jobs(args):
        return 2

    scale = config.get_scale(args.scale)
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    for name in names:
        run_fn, report_fn, _ = EXPERIMENTS[name]
        start = time.perf_counter()
        result = run_fn(scale, args.seed, args.trace, args.jobs, cache, args.tier)
        elapsed = time.perf_counter() - start
        print(f"=== {name} (scale={scale.name}, {elapsed:.1f}s) " + "=" * 30)
        print(report_fn(result))
        print()
    if cache is not None and cache.hits + cache.misses > 0:
        print(cache.stats_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
