"""Cell execution and the tiered dispatch orchestrator.

:func:`run_cell` turns one :class:`~repro.runner.spec.ExperimentSpec`
into a :class:`~repro.runner.spec.CellResult`, fully deterministically:
the spec carries the seed, the workload parameters and the cell
coordinates, so the same spec always produces bit-identical results --
whether it runs in-process, in a worker, or was loaded from the cache.

:func:`run_many` is the fan-out: cache lookups first, then duplicate
specs coalesced, then the remaining cells dispatched through one of
two pluggable **execution tiers**:

``inline``
    Run every pending cell in the calling process, no Pool spin-up.
    The cheapest tier for grids of tiny cells, where process fan-out
    costs more than the simulations themselves.
``process``
    The chunked ``multiprocessing.Pool`` fan-out; workers hydrate
    ``trace_ref`` specs from the on-disk workload store, which
    memoizes each trace per process, so a worker reads a trace once.
    A spec pickles in a few hundred bytes whatever its trace length.
``auto`` (the default)
    Picks a tier from the pending-cell count and the estimated per-cell
    cost: a caller-provided estimate (e.g. a campaign manifest's
    recorded timings) or a one-cell in-process probe whose result is
    kept.  Small grids stay inline; big ones fan out.

Every tier produces byte-identical results, artifacts and cache keys
for the same spec list -- tiers are a *transport* choice, never a
semantic one (pinned by the cross-tier determinism tests).  Results
always come back in spec order.

Explicit-trace specs reference their rows by digest (``trace_ref``).
They hydrate from the cache's workload store, or from the default
store under ``$REPRO_CACHE_DIR`` when there is no cache, exactly as
:func:`run_cell` does.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.registry import make_allocator
from repro.patterns.base import get_pattern
from repro.runner.cache import ResultCache
from repro.runner.spec import CellResult, ExperimentSpec
from repro.sched.simulator import Simulation
from repro.sched.stats import summarize
from repro.trace.store import TraceStore

__all__ = [
    "run_cell",
    "run_many",
    "sweep_specs",
    "MIXED_A2A_NBODY",
    "mixed_pattern_selector",
    "TIERS",
    "TierDecision",
    "auto_jobs",
    "choose_tier",
    "AUTO_INLINE_BUDGET_S",
]

#: Pattern sentinel for the hybrid experiment's 50/50 all-to-all / n-body
#: mix; specs are name-keyed, so the mixed workload needs a stable name.
MIXED_A2A_NBODY = "mixed(a2a+nbody)"

#: Accepted values of the ``tier=`` knob, ``auto`` first as the default.
TIERS = ("auto", "inline", "process")

#: ``auto`` stays inline while the *estimated remaining serial time* is at
#: most this many seconds: a Pool can save at most ``(1 - 1/workers)`` of
#: it, which below this budget is comparable to the fork/IPC/teardown
#: overhead it adds.  Deliberately a module constant so tests (and
#: unusual deployments) can tune it.
AUTO_INLINE_BUDGET_S = 1.0


def mixed_pattern_selector(seed: int) -> Callable:
    """Deterministic 50/50 all-to-all / n-body assignment by job id.

    >>> select = mixed_pattern_selector(seed=7)
    >>> from repro.sched.job import Job
    >>> [select(Job(i, 0.0, 4, 1.0)).name for i in range(6)]
    ['all-to-all', 'all-to-all', 'all-to-all', 'all-to-all', 'n-body', 'n-body']
    """
    a2a = get_pattern("all-to-all")
    nbody = get_pattern("n-body")

    def select(job):
        pick = np.random.default_rng(
            np.random.SeedSequence([seed, 0xAB, job.job_id])
        ).random()
        return a2a if pick < 0.5 else nbody

    return select


def run_cell(spec: ExperimentSpec, store=None) -> CellResult:
    """Execute one cell; deterministic in the spec alone.

    ``store`` is the :class:`~repro.trace.store.TraceStore` that
    hydrates ref specs (``trace_ref``); synthetic specs never touch
    it.  ``None`` falls back to the default
    workload store under ``$REPRO_CACHE_DIR``/``.repro-cache``.

    >>> cell = run_cell(ExperimentSpec(
    ...     mesh_shape=(16, 22), pattern="ring", allocator="row-major",
    ...     load=1.0, seed=1, n_jobs=3, runtime_scale=0.01))
    >>> cell.summary.n_jobs
    3
    >>> run_cell(cell.spec).summary == cell.summary
    True
    """
    start = time.perf_counter()
    if spec.pattern == MIXED_A2A_NBODY:
        pattern = mixed_pattern_selector(spec.seed)
        label = MIXED_A2A_NBODY
    else:
        pattern = get_pattern(spec.pattern)
        label = None
    sim = Simulation(
        spec.build_machine_topology(),
        make_allocator(spec.allocator),
        pattern,
        spec.build_jobs(store),
        params=spec.network_params(),
        seed=spec.seed,
        load_factor=spec.load,
        pattern_label=label,
        scheduler=spec.scheduler,
    )
    result = sim.run()
    return CellResult(
        spec=spec,
        summary=summarize(result),
        jobs=result.jobs,
        elapsed=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# Execution tiers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TierDecision:
    """How (and why) a :func:`run_many` call dispatched its pending cells.

    ``requested`` is the caller's ``tier=`` value; ``tier`` the concrete
    tier that ran (never ``auto``); ``n_cells`` the pending cells the
    decision covered (including a probe cell, when one ran);
    ``est_cell_s`` the per-cell cost estimate ``auto`` used (``None``
    for forced tiers and trivial grids).
    """

    requested: str
    tier: str
    n_cells: int
    reason: str
    est_cell_s: float | None = None

    def describe(self) -> str:
        """One line for CLIs: ``process (auto: ...)``."""
        est = (
            f", ~{self.est_cell_s * 1e3:.1f} ms/cell"
            if self.est_cell_s is not None
            else ""
        )
        return f"{self.tier} ({self.requested}: {self.reason}{est})"


def auto_jobs(n_pending: int, est_cell_s: float | None = None) -> int:
    """Worker count for ``jobs=None``: sized to the host and the work.

    The ceiling is the CPUs actually usable by this process
    (``os.process_cpu_count`` where available -- respects affinity
    masks/cgroup limits -- else ``os.cpu_count``).  With a per-cell cost
    estimate (a campaign manifest's recorded ``mean_compute_seconds``,
    or the auto tier's probe) the count is scaled down so every worker
    gets at least :data:`AUTO_INLINE_BUDGET_S` of work -- spinning up
    16 processes for 1.2s of total compute loses to 2.

    >>> auto_jobs(0)
    1
    >>> auto_jobs(100, est_cell_s=0.0)
    1
    """
    cpus = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    if n_pending <= 0:
        return 1
    if est_cell_s is None:
        return max(1, min(cpus, n_pending))
    busy = math.ceil(n_pending * est_cell_s / AUTO_INLINE_BUDGET_S)
    return max(1, min(cpus, n_pending, busy))


def choose_tier(
    n_pending: int,
    jobs: int,
    est_cell_s: float | None = None,
) -> TierDecision:
    """The ``auto`` policy as a pure function of the grid's shape.

    Inline whenever a Pool cannot pay for itself: one worker, at most
    one pending cell, or an estimated remaining serial time within
    :data:`AUTO_INLINE_BUDGET_S`.  Otherwise the process tier.  With no
    estimate available the caller is expected to probe one cell first
    (see :func:`run_many`).

    >>> choose_tier(100, jobs=4, est_cell_s=0.001).tier
    'inline'
    >>> choose_tier(100, jobs=4, est_cell_s=0.5).tier
    'process'
    >>> choose_tier(100, jobs=1).tier
    'inline'
    """
    if jobs <= 1:
        return TierDecision("auto", "inline", n_pending, "single worker")
    if n_pending <= 1:
        return TierDecision("auto", "inline", n_pending, "at most one pending cell")
    if est_cell_s is not None:
        remaining = n_pending * est_cell_s
        if remaining <= AUTO_INLINE_BUDGET_S:
            return TierDecision(
                "auto",
                "inline",
                n_pending,
                f"~{remaining:.2f}s of serial work fits the "
                f"{AUTO_INLINE_BUDGET_S:g}s inline budget",
                est_cell_s,
            )
        return TierDecision(
            "auto",
            "process",
            n_pending,
            f"~{remaining:.2f}s of serial work over {jobs} workers",
            est_cell_s,
        )
    return TierDecision("auto", "probe", n_pending, "no cost estimate; probing")


def _worker(payload: tuple[ExperimentSpec, str | None]) -> CellResult:
    """Pool entry point (top-level so it pickles under spawn too).

    ``payload`` is ``(spec, store_root)``: the store location rides along
    explicitly because workers must hydrate ref specs against the same
    store the parent reads (which need not be the default root).
    """
    spec, store_root = payload
    store = TraceStore(store_root) if store_root is not None else None
    return run_cell(spec, store=store)


def run_many(
    specs: Iterable[ExperimentSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int, CellResult], None] | None = None,
    tier: str | None = "auto",
    est_cell_s: float | None = None,
    on_decision: Callable[[TierDecision], None] | None = None,
) -> list[CellResult]:
    """Run every spec, reusing cached cells, through an execution tier.

    Parameters
    ----------
    specs:
        The grid cells; the returned list is index-aligned with it.
    jobs:
        Worker processes.  ``<= 1`` always runs in the calling process
        (same results, by construction -- see the determinism tests);
        ``None`` auto-tunes the count from the host's usable CPUs and
        the per-cell cost estimate (:func:`auto_jobs`).
    cache:
        Optional :class:`ResultCache`; hits skip computation, misses are
        stored after computing.  Ref specs hydrate from its workload
        store (:attr:`ResultCache.traces`), or from the default store
        when there is no cache.
    progress:
        Optional ``callback(done, total, cell)`` fired as cells resolve
        (cache hits first, then computed cells in completion order).
    tier:
        Execution tier: ``"inline"``, ``"process"`` or ``"auto"`` (see the module docstring); ``None`` means
        ``"auto"``, so callers can thread through an unset CLI flag
        untouched.  Tiers change *where* cells compute, never *what*
        they compute: results, artifacts and cache keys are
        byte-identical across all of them.
    est_cell_s:
        Estimated per-cell compute seconds, used by ``auto`` instead of
        probing (e.g. a campaign manifest's recorded mean).
    on_decision:
        Optional callback receiving the :class:`TierDecision` actually
        taken -- observability for CLIs and the campaign manifest.
    """
    if tier is None:
        tier = "auto"
    if tier not in TIERS:
        raise ValueError(f"unknown execution tier {tier!r}; known tiers: {list(TIERS)}")
    spec_list = list(specs)
    total = len(spec_list)
    results: list[CellResult | None] = [None] * total
    done = 0

    store = cache.traces if cache is not None else None
    store_root = str(store.root) if store is not None else None

    def resolve(index: int, cell: CellResult) -> None:
        nonlocal done
        results[index] = cell
        done += 1
        if progress is not None:
            progress(done, total, cell)

    # Cache pass + duplicate coalescing: identical specs compute once.
    pending: dict[ExperimentSpec, list[int]] = {}
    for i, spec in enumerate(spec_list):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            resolve(i, hit)
        else:
            pending.setdefault(spec, []).append(i)

    def fan_out(cell: CellResult) -> None:
        if cache is not None:
            cache.put(cell)
        for i in pending[cell.spec]:
            resolve(i, cell)

    work = list(pending)
    n_pending = len(work)

    # -- tier resolution ------------------------------------------------
    # jobs=None auto-tunes the worker count alongside the tier; the
    # resolved count feeds the same choose_tier policy a fixed count
    # would, so the tier tests' invariants hold either way.
    tuned = jobs is None
    if tuned:
        jobs = auto_jobs(n_pending, est_cell_s)
    if tier == "auto":
        decision = choose_tier(n_pending, jobs, est_cell_s)
        if decision.tier == "probe":
            # Calibrate with up to two real cells, in-process; their
            # results count.  The minimum of the two is the estimate:
            # the very first cell pays one-time warm-up (imports, numpy
            # dispatch caches) that would otherwise overstate the grid
            # several-fold.
            probes = []
            while work and len(probes) < 2:
                probe = run_cell(work[0], store=store)
                fan_out(probe)
                work = work[1:]
                probes.append(probe.elapsed)
            if tuned:
                jobs = auto_jobs(len(work), min(probes))
            decision = choose_tier(len(work), jobs, min(probes))
            decision = TierDecision(
                "auto",
                decision.tier,
                n_pending,
                f"probed {len(probes)} cells; {decision.reason}",
                decision.est_cell_s,
            )
    elif jobs <= 1 or n_pending <= 1:
        decision = TierDecision(
            tier,
            "inline",
            n_pending,
            "forced" if tier == "inline" else "single worker or <= 1 pending cell",
        )
    else:
        decision = TierDecision(tier, tier, n_pending, "forced")
    if on_decision is not None:
        on_decision(decision)

    n_workers = max(1, min(jobs, len(work)))
    if decision.tier == "process" and n_workers > 1 and work:
        # Chunked dispatch amortises pickling without starving workers.
        chunksize = max(1, len(work) // (n_workers * 4))
        payloads = [(spec, store_root) for spec in work]
        with multiprocessing.Pool(processes=n_workers) as pool:
            for cell in pool.imap_unordered(_worker, payloads, chunksize=chunksize):
                fan_out(cell)
    else:
        for spec in work:
            fan_out(run_cell(spec, store=store))

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def sweep_specs(
    mesh_shape: tuple[int, ...],
    patterns: Sequence[str],
    loads: Sequence[float],
    allocators: Sequence[str],
    seed: int,
    n_jobs: int = 0,
    runtime_scale: float = 1.0,
    network=None,
    torus: bool = False,
    trace_ref: str | None = None,
) -> list[ExperimentSpec]:
    """The figure-grid spec list, in the drivers' canonical cell order
    (pattern-major, then load, then allocator).  ``mesh_shape`` may be a
    2- or 3-tuple; ``torus`` wraps opposite faces (fig12's 8x8x8 torus);
    an explicit workload is the digest of a stored trace (``trace_ref``).

    >>> grid = sweep_specs((8, 8), ("ring", "all-to-all"), (1.0, 0.5),
    ...                    ("mc",), seed=1, n_jobs=10)
    >>> [(s.pattern, s.load) for s in grid]
    [('ring', 1.0), ('ring', 0.5), ('all-to-all', 1.0), ('all-to-all', 0.5)]
    """
    return [
        ExperimentSpec(
            mesh_shape=tuple(mesh_shape),
            pattern=pattern,
            allocator=allocator,
            load=load,
            seed=seed,
            n_jobs=n_jobs,
            runtime_scale=runtime_scale,
            network=network,
            torus=torus,
            trace_ref=trace_ref,
        )
        for pattern in patterns
        for load in loads
        for allocator in allocators
    ]
