"""Parallel experiment engine with on-disk result caching.

The paper's headline figures are grids of *independent* (allocator, load,
pattern) simulation cells, which makes the evaluation embarrassingly
parallel (cf. the per-agent independence exploited by distributed
allocation work, arXiv:1711.01977).  This subsystem turns one grid cell
into a value -- an :class:`ExperimentSpec` that is hashable and
JSON-serializable -- and provides:

* :func:`run_cell`: execute one spec deterministically,
* :func:`run_many`: dispatch a spec list through pluggable **execution
  tiers** -- ``inline`` (in-process, no Pool spin-up), ``process``
  (chunked ``multiprocessing`` fan-out) and the default ``auto``
  policy that picks by pending-cell count and estimated per-cell
  cost -- preserving spec order in the results.  Explicit traces are
  digests into the content-addressed workload store
  (:mod:`repro.trace.store`), so workers receive digest-sized specs.
  Tiers are a transport choice only: results, artifacts and cache
  keys are byte-identical across all of them,
* :class:`ResultCache`: a compressed artifact store under
  ``.repro-cache/`` keyed by :func:`cell_digest` (the spec's hash), so repeated sweeps and the
  benchmark suite skip already-computed cells; explicit traces are
  stored once under ``.repro-cache/traces/`` and referenced by digest.

Every figure driver that replays the trace (figs 7, 8, 9/10, 11 and the
extensions) is built on this engine; ``python -m repro.experiments``
exposes it through ``--jobs N`` and ``--no-cache``, and
``python -m repro.runner`` provides cache lifecycle tooling
(``ls`` / ``prune`` / ``vacuum``).
"""

from repro.runner.cache import CACHE_FORMAT, ResultCache, VacuumReport, default_cache_root
from repro.runner.engine import (
    MIXED_A2A_NBODY,
    TIERS,
    TierDecision,
    auto_jobs,
    choose_tier,
    mixed_pattern_selector,
    run_cell,
    run_many,
    sweep_specs,
)
from repro.runner.spec import CellResult, ExperimentSpec, cell_digest

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "cell_digest",
    "ResultCache",
    "VacuumReport",
    "CACHE_FORMAT",
    "TIERS",
    "TierDecision",
    "auto_jobs",
    "choose_tier",
    "default_cache_root",
    "run_cell",
    "run_many",
    "sweep_specs",
    "MIXED_A2A_NBODY",
    "mixed_pattern_selector",
]
