"""Campaign execution on the parallel experiment engine.

One loop executes every campaign: expand it (interning workloads into
the cache's store), open the resumable manifest, then repeat *claim ->
run_many -> flush -> release* until the wanted cells are resolved.
Cells are claimed through per-cell lease files
(:mod:`repro.campaign.lease`), so any number of processes pointed at one
cache root partition the pending cells with no duplicated compute.
:func:`drain_campaign` is that loop as one of N runners claiming
``batch`` cells at a time; :func:`run_campaign` is a one-runner drain
with one batch (so ``jobs=N`` starts one worker pool) that serves cells
already recorded as done straight from the cache.  Because the artifact
cache is content-addressed by spec, resumption needs no special
machinery: re-running a half-finished campaign turns every completed
cell into a cache hit, and the manifest is what makes that state
*visible* (``status``) without opening a single artifact.

:meth:`CampaignRun.sweep_results` regroups cells into the
:class:`~repro.experiments.sweep.SweepResult` panels the report helpers
consume; it is how the sweep figures' drivers print tables from grids
declared only in their bundled campaign files.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaign.expand import CampaignCell, Expansion, cell_digest, expand
from repro.campaign.lease import DEFAULT_LEASE_TTL, LeaseDir, lease_dir_path
from repro.campaign.manifest import CampaignManifest, manifest_path
from repro.campaign.model import Campaign, CampaignError, TraceSource
from repro.runner import CellResult, ResultCache, TierDecision, run_many

__all__ = [
    "CampaignRun",
    "run_campaign",
    "drain_campaign",
    "group_sweep_results",
    "prune_campaign",
]


def group_sweep_results(pairs) -> dict:
    """Group ``(cell, RunSummary)`` pairs into per-mesh sweep panels.

    Returns ``{mesh_label: [SweepResult per pattern]}`` with meshes,
    patterns and cells all in first-appearance (i.e. expansion) order --
    the grouping the figure drivers' ``report`` functions (and the
    golden snapshots) expect.  Shared by :meth:`CampaignRun.sweep_results`
    and the report module's machine-comparison table.
    """
    from repro.experiments.sweep import SweepResult

    panels: dict = {}
    for cell, summary in pairs:
        mesh_label = cell.coords["mesh"]
        pattern = cell.coords["pattern"]
        group = panels.setdefault(mesh_label, {})
        if pattern not in group:
            group[pattern] = SweepResult(
                mesh_shape=cell.spec.mesh_shape,
                pattern=pattern,
                torus=cell.spec.torus,
            )
        group[pattern].cells.append(summary)
    return {mesh: list(group.values()) for mesh, group in panels.items()}


@dataclass
class CampaignRun:
    """Outcome of one ``run`` or ``drain`` invocation over a campaign.

    ``selected``/``results`` are index-aligned, in expansion order.  A
    ``run`` (``runner is None``) covers every selected cell: with
    ``limit`` the first N pending cells, otherwise every cell.  A drain
    covers only the cells *its* runner resolved -- the rest of the
    campaign was (or is being) drained by other runners sharing the
    cache root.  ``manifest`` reflects the merged completion state as of
    the final flush, so ``summary_line`` reports campaign-wide progress.
    """

    expansion: Expansion
    #: The drain runner's identifier; ``None`` for a ``run``.
    runner: str | None = None
    selected: list[CampaignCell] = field(default_factory=list)
    results: list[CellResult] = field(default_factory=list)
    manifest: CampaignManifest | None = None
    wall: float = 0.0
    hits: int = 0
    misses: int = 0
    #: Claim batches processed (one ``run_many`` call each).
    batches: int = 0
    #: Cells adopted from expired leases (dead runners).
    stolen: int = 0
    #: One TierDecision per batch, in order.
    tier_decisions: list[TierDecision] = field(default_factory=list)

    @property
    def campaign(self) -> Campaign:
        return self.expansion.campaign

    @property
    def tier_decision(self) -> TierDecision | None:
        """How the engine dispatched the first batch (tier + reason)."""
        return self.tier_decisions[0] if self.tier_decisions else None

    def sweep_results(self) -> dict:
        """Per-mesh :class:`SweepResult` panels, in axis declaration order
        (see :func:`group_sweep_results`)."""
        return group_sweep_results(
            (cell, result.summary)
            for cell, result in zip(self.selected, self.results)
        )

    def summary_line(self) -> str:
        counts = self.manifest.counts([c.digest for c in self.expansion.cells])
        by = f" drained by {self.runner!r}" if self.runner is not None else ""
        stolen = f", {self.stolen} stolen" if self.stolen else ""
        return (
            f"campaign {self.campaign.name!r}{by}: ran {len(self.results)} cells "
            f"({self.hits} from cache, {self.misses} computed{stolen}) in "
            f"{self.wall:.1f}s; {counts['done']}/{counts['total']} cells done"
        )


#: Least seconds between two manifest flushes while cells complete.
#: Completion is durable in the content-addressed cache as soon as a
#: cell's artifact lands, so a flush lost to a crash only turns the
#: cell into a cache hit on the next run.
FLUSH_INTERVAL_S = 1.0


def _execute(
    campaign: Campaign,
    cache: ResultCache,
    runner: str | None,
    jobs: int | None,
    progress: Callable[[int, int, CellResult], None] | None,
    tier: str | None,
    batch: int | None = None,
    limit: int | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_s: float = 0.25,
    private: bool = False,
) -> CampaignRun:
    """The one execution loop: a drain as ``runner``, or a ``run`` if None.

    A ``run`` resolves every cell of its selection itself and leaves no
    runner record; its cells already recorded as done need no lease, as
    the cache lookup :func:`run_many` makes anyway serves them.  A drain
    leaves a recorded cell to whoever recorded it, unless its artifact
    has since disappeared.  ``batch=None`` claims every wanted cell at once.
    ``private`` marks a root no other runner can reach (a
    :class:`_ScratchCache`'s): its cells are claimed through
    :class:`_NoLeases`, and the returned manifest has no path, since its
    file goes with the root.
    """
    expansion = expand(campaign, store=cache.traces)
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    manifest = CampaignManifest.open(path, campaign.name, expansion.digest)
    want = list(expansion.cells)
    if limit is not None:
        # A cell only counts as done if its artifact still exists -- the
        # manifest can outlive artifacts (prune/vacuum), and a limited
        # run must not skip cells it would have to recompute.
        done = manifest.done_digests()
        want = [
            c for c in want
            if c.digest not in done or not cache.artifact_exists(c.digest)
        ][:limit]
    by_digest = {c.digest: c for c in want}
    batch = batch or max(1, len(want))
    if private:
        leases = _NoLeases()
    else:
        leases = LeaseDir(
            lease_dir_path(cache.root, campaign.name, expansion.digest),
            runner=runner or f"{socket.gethostname()}-{os.getpid()}",
            ttl=lease_ttl,
        )
    if runner is not None:
        manifest.heartbeat(runner)

    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(lease_ttl / 4.0):
            leases.heartbeat()

    beater = None
    if not private:
        beater = threading.Thread(
            target=_beat, name=f"lease-heartbeat-{leases.runner}", daemon=True
        )
        beater.start()

    resolved: dict[str, CellResult] = {}
    decisions: list[TierDecision] = []
    hits0, misses0 = cache.hits, cache.misses
    n_batches = n_stolen = 0
    start = last_flush = time.perf_counter()

    def on_cell(_done: int, _total: int, result: CellResult) -> None:
        nonlocal last_flush
        digest = cell_digest(result.spec)
        manifest.mark_done(
            digest,
            by_digest[digest].coords,
            cached=result.cached,
            elapsed=result.elapsed,
            runner=runner,
        )
        resolved[digest] = result
        now = time.perf_counter()
        if now - last_flush >= FLUSH_INTERVAL_S:
            manifest.flush()
            last_flush = now
        if progress is not None:
            progress(len(resolved), len(want), result)

    try:
        while True:
            manifest.refresh()
            done = manifest.done_digests()
            todo = [c for c in want if c.digest not in resolved]
            if runner is not None:
                todo = [
                    c for c in todo
                    if c.digest not in done or not cache.artifact_exists(c.digest)
                ]
                done = set()
            if not todo:
                break
            contested = [c.digest for c in todo if c.digest not in done]
            claimed, stolen = (
                leases.claim_batch(contested, batch) if contested else ([], [])
            )
            go = done.union(claimed, stolen)
            ready = [c.spec for c in todo if c.digest in go]
            if not ready:
                # Every cell still wanted is leased to a live runner; wait
                # for their completions (or their leases' expiry).
                time.sleep(poll_s)
                continue
            n_batches += 1
            n_stolen += len(stolen)
            run_many(
                ready,
                jobs=jobs,
                cache=cache,
                progress=on_cell,
                tier=tier,
                est_cell_s=manifest.mean_compute_seconds(),
                on_decision=decisions.append,
            )
            if claimed or stolen:
                # One flush per batch, and release strictly after it: a
                # crash between the two leaks leases over done cells,
                # never a released lease over an unrecorded one.
                manifest.flush()
                last_flush = time.perf_counter()
                for digest in claimed + stolen:
                    leases.release(digest)
        wall = time.perf_counter() - start
        hits, misses = cache.hits - hits0, cache.misses - misses0
        if runner is not None:
            manifest.heartbeat(runner)
        manifest.record_run(
            wall,
            hits=hits,
            misses=misses,
            n_selected=len(resolved),
            limit=limit,
            tier=decisions[0].tier if decisions else None,
            runner=runner,
            mode="run" if runner is None else "drain",
        )
    finally:
        if beater is not None:
            stop.set()
            beater.join(timeout=5.0)
        # One flush however the loop ends -- an interrupted run still
        # records every cell it completed -- and only then the release
        # of whatever leases are still held.
        manifest.flush()
        if leases.held():
            leases.release_all()
    if private:
        manifest.path = None
    selected = [c for c in want if c.digest in resolved]
    return CampaignRun(
        expansion=expansion,
        runner=runner,
        selected=selected,
        results=[resolved[c.digest] for c in selected],
        manifest=manifest,
        wall=wall,
        hits=hits,
        misses=misses,
        batches=n_batches,
        stolen=n_stolen,
        tier_decisions=decisions,
    )


class _ScratchCache(ResultCache):
    """What a cache-less run executes against: a root for its manifest
    that lives for one call (:func:`_scratch_cache`).  Nothing put in it
    could ever be read back, so it keeps nothing: every lookup misses and
    no artifact is written.  Its root's workload store holds the traces
    the run interns (its ``swf`` workloads, or a replayed trace) for the
    run's cells to hydrate from."""

    def get(self, spec):
        self.misses += 1

    def put(self, result):
        pass


@contextmanager
def _scratch_cache():
    """A :class:`_ScratchCache` in a temporary root, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as root:
        yield _ScratchCache(root)


class _NoLeases:
    """The lease set of a private run: every claim succeeds and nothing
    touches the disk, since no other runner shares the root."""

    def claim_batch(self, digests, n: int) -> tuple[list[str], list[str]]:
        return list(digests)[:n], []

    def held(self) -> set[str]:
        return set()

    def release(self, digest: str) -> None:
        pass

    def release_all(self) -> None:
        pass


def run_campaign(
    campaign: Campaign,
    cache: ResultCache | None = None,
    jobs: int | None = 1,
    limit: int | None = None,
    progress: Callable[[int, int, CellResult], None] | None = None,
    tier: str | None = None,
    trace: list[tuple] | None = None,
) -> CampaignRun:
    """Expand and run a campaign as one runner, resuming from its manifest.

    Parameters
    ----------
    campaign:
        The validated campaign model.
    cache:
        Artifact cache; also supplies the workload store SWF sources are
        interned into and the directory the manifest and leases live
        next to.  ``None`` runs against a throwaway cache root that is
        removed on return -- same results, nothing persists, no artifact
        or lease file is written -- and raises :class:`CampaignError` for
        a ``ref`` workload of the campaign's own, whose trace only a
        cache's workload store can hold.
    jobs:
        Worker processes for the engine fan-out; ``None`` auto-tunes
        from the host's CPUs and the manifest's recorded mean cell cost
        (:func:`repro.runner.auto_jobs`).
    limit:
        Run at most this many *not-yet-done* cells (completed cells are
        skipped entirely).  The natural increment for huge campaigns and
        what the resumption tests interrupt with.
    progress:
        Optional ``callback(done, total, cell)`` fired as cells resolve.
    tier:
        Execution tier for the engine (``auto``/``inline``/``process``);
        ``None`` means ``auto``.  When the manifest has
        recorded compute timings, they calibrate the ``auto`` policy so
        resumed campaigns skip the probe.  Results, artifacts and cache
        keys are identical for every tier.
    trace:
        Trace rows (:func:`repro.trace.archive.trace_rows`) that replace
        the campaign's workload axis, replayed as recorded: they are
        interned as a ``ref`` workload in the cache's workload store, or
        without a cache in the throwaway root's own store.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")

    def replaying(store) -> Campaign:
        if trace is None:
            return campaign
        ref = TraceSource(kind="ref", digest=store.put(trace))
        return replace(campaign, axes={**campaign.axes, "workload": [ref]})

    if cache is not None:
        return _execute(
            replaying(cache.traces), cache, None, jobs, progress, tier, limit=limit
        )
    if trace is None:
        campaign.validate()  # normalises the workload axis to TraceSources
        refs = [s.label for s in campaign.axes.get("workload", ()) if s.kind == "ref"]
        if refs:
            raise CampaignError(
                f"workload {refs[0]!r}: a ref workload needs a cache -- its "
                "trace lives in a cache's workload store, and a cache-less "
                "run has none"
            )
    with _scratch_cache() as scratch:
        return _execute(
            replaying(scratch.traces), scratch, None, jobs, progress, tier,
            limit=limit, private=True,
        )


def drain_campaign(
    campaign: Campaign,
    cache: ResultCache,
    runner: str | None = None,
    jobs: int | None = 1,
    batch: int = 8,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    progress: Callable[[int, int, CellResult], None] | None = None,
    tier: str | None = None,
    poll_s: float = 0.25,
) -> CampaignRun:
    """Cooperatively drain a campaign as one of N concurrent runners.

    Claims ``batch`` unleased pending cells at a time (``O_EXCL`` -- no
    two runners get the same cell) until the *campaign* is done,
    including cells other runners complete, which become visible
    through manifest refreshes between batches.  A heartbeat thread
    keeps this runner's leases fresh; leases whose runner died (SIGKILL
    -- no heartbeats for ``lease_ttl``) are stolen and their cells
    recomputed, the same resume semantics an interrupted ``run`` has.
    The result holds only the cells this runner resolved.

    Parameters mirror :func:`run_campaign` except:

    runner:
        Stable identifier recorded in leases, cell records and run
        history (default ``<host>-<pid>``).
    jobs:
        Engine workers *per batch* for this runner (default 1: the
        cooperating runners themselves are the parallelism; ``None``
        auto-tunes, for a lone drainer).
    batch:
        Cells claimed per iteration.  Small batches spread work evenly
        as the campaign tail drains; large ones amortise claim overhead.
    lease_ttl:
        Seconds without heartbeats before this runner's leases become
        stealable.
    poll_s:
        Sleep between manifest polls when every pending cell is leased
        to a live runner.

    A drain needs the shared cache -- it is both the lease rendezvous
    and what makes worst-case double-claims benign (the second claimer
    gets a cache hit, not a recompute).
    """
    if cache is None:
        raise ValueError("drain_campaign needs a cache (the shared drain root)")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if runner is None:
        runner = f"{socket.gethostname()}-{os.getpid()}"
    return _execute(
        campaign, cache, str(runner), jobs, progress, tier, batch, None, lease_ttl, poll_s
    )


def prune_campaign(
    campaign: Campaign, cache: ResultCache, dry_run: bool = False
) -> tuple[list, Path | None]:
    """Retire one campaign: its cached artifacts plus its manifest.

    Expands the campaign to recover the exact cell set, removes the
    artifacts named by its cell digests (via
    :meth:`ResultCache.prune` with the ``keys`` criterion -- cells
    shared with *other* sweeps are removed too, but re-running those
    sweeps simply recomputes them), and deletes the manifest file.
    ``dry_run`` reports without deleting.  Returns ``(artifact paths,
    manifest path or None)``; follow with ``vacuum`` to drop traces
    nothing references any more.
    """
    expansion = expand(campaign, store=cache.traces)
    keys = {cell.digest for cell in expansion.cells}
    removed = cache.prune(keys=keys, dry_run=dry_run) if keys else []
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    manifest_file: Path | None = None
    if path.is_file():
        manifest_file = path
        if not dry_run:
            path.unlink()
    return removed, manifest_file
