"""Campaign execution on the parallel experiment engine.

:func:`run_campaign` is the one call the CLI and the figure-driver shims
share: expand the campaign (interning workloads into the cache's store),
open the resumable manifest, fan the pending cells out through
:func:`repro.runner.run_many`, and record per-cell completion as results
land (flushed to disk at most once per :data:`FLUSH_INTERVAL_S` and once
when the run ends, however it ends).  Because the engine's artifact
cache is content-addressed by spec, resumption needs no special
machinery: re-running a half-finished campaign turns every previously
completed cell into a cache hit, and the manifest is what makes that
state *visible* (``status``) without opening a single artifact.

:func:`drain_campaign` is the cooperative counterpart: N runner
processes pointed at one cache root partition the pending cells through
the lease/claim protocol (:mod:`repro.campaign.lease`) and drain the
campaign together with no duplicated compute -- the fleet-scale mode the
``drain`` CLI verb exposes.

:meth:`CampaignRun.sweep_results` regroups cells into the
:class:`~repro.experiments.sweep.SweepResult` panels the existing report
helpers consume, which is how the ported fig07/fig12/figswf drivers stay
byte-identical to their hand-written predecessors.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.expand import CampaignCell, Expansion, cell_digest, expand
from repro.campaign.lease import DEFAULT_LEASE_TTL, LeaseDir, lease_dir_path
from repro.campaign.manifest import CampaignManifest, manifest_path
from repro.campaign.model import Campaign
from repro.runner import CellResult, ResultCache, TierDecision, run_many

__all__ = [
    "CampaignRun",
    "CampaignDrain",
    "run_campaign",
    "drain_campaign",
    "group_sweep_results",
    "prune_campaign",
]


def group_sweep_results(pairs) -> dict:
    """Group ``(cell, RunSummary)`` pairs into per-mesh sweep panels.

    Returns ``{mesh_label: [SweepResult per pattern]}`` with meshes,
    patterns and cells all in first-appearance (i.e. expansion) order --
    exactly the grouping the hand-written sweep drivers produced, so
    their ``report`` functions (and the golden snapshots) apply
    unchanged.  Shared by :meth:`CampaignRun.sweep_results` and the
    report module's machine-comparison table.
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
    """Outcome of one ``run`` invocation over a campaign.

    ``selected``/``results`` are index-aligned; with ``limit`` they cover
    only the first N pending cells, otherwise every cell in expansion
    order.  ``manifest`` reflects the post-run completion state.
    """

    expansion: Expansion
    selected: list[CampaignCell] = field(default_factory=list)
    results: list[CellResult] = field(default_factory=list)
    manifest: CampaignManifest | None = None
    wall: float = 0.0
    hits: int = 0
    misses: int = 0
    #: How the engine dispatched the pending cells (tier + reason).
    tier_decision: TierDecision | None = None

    @property
    def campaign(self) -> Campaign:
        return self.expansion.campaign

    def sweep_results(self) -> dict:
        """Per-mesh :class:`SweepResult` panels, in axis declaration order
        (see :func:`group_sweep_results`)."""
        return group_sweep_results(
            (cell, result.summary)
            for cell, result in zip(self.selected, self.results)
        )

    def summary_line(self) -> str:
        counts = (
            self.manifest.counts([c.digest for c in self.expansion.cells])
            if self.manifest is not None
            else {"done": len(self.results), "total": len(self.expansion.cells)}
        )
        return (
            f"campaign {self.campaign.name!r}: ran {len(self.selected)} cells "
            f"({self.hits} from cache, {self.misses} computed) in {self.wall:.1f}s; "
            f"{counts['done']}/{counts['total']} cells done"
        )


#: Least seconds between two manifest flushes of one ``run_campaign``.
#: Completion is durable in the content-addressed cache as soon as a
#: cell's artifact lands, so a flush lost to a crash only turns the
#: cell into a cache hit on the next run.
FLUSH_INTERVAL_S = 1.0


def _artifact_probe(cache: ResultCache | None) -> Callable[[CampaignCell], bool]:
    """``exists(cell)``: whether the cell's artifact is on disk (no decode).

    Each cell's cache key (a canonical-JSON hash) is computed once per
    probe, however often the cell is checked; the file is stat'ed on
    every call.
    """
    keys: dict[str, str] = {}

    def exists(cell: CampaignCell) -> bool:
        if cache is None:
            return False
        key = keys.get(cell.digest)
        if key is None:
            try:
                key = keys[cell.digest] = cache.key_for(cell.spec)
            except KeyError:  # ref spec whose trace left the store
                return False
        return cache.artifact_exists(key)

    return exists


def run_campaign(
    campaign: Campaign,
    cache: ResultCache | None = None,
    jobs: int | None = 1,
    limit: int | None = None,
    progress: Callable[[int, int, CellResult], None] | None = None,
    tier: str | None = None,
) -> CampaignRun:
    """Expand and run a campaign, resuming from its manifest.

    Parameters
    ----------
    campaign:
        The validated campaign model.
    cache:
        Artifact cache; also supplies the workload store SWF sources are
        interned into and the directory the manifest lives next to.
        ``None`` runs without persistence (in-memory manifest, inline
        traces) -- same results, nothing to resume.
    jobs:
        Worker processes for the engine fan-out; ``None`` auto-tunes
        from the host's CPUs and the manifest's recorded mean cell cost
        (:func:`repro.runner.auto_jobs`).
    limit:
        Run at most this many *not-yet-done* cells (completed cells are
        skipped entirely).  The natural increment for huge campaigns and
        what the resumption tests interrupt with.
    progress:
        Optional ``callback(done, total, cell)`` forwarded to
        :func:`run_many`.
    tier:
        Execution tier for the engine (``auto``/``inline``/``process``/
        ``process+shm``); ``None`` falls back to the campaign file's
        ``[campaign] tier`` and then to ``auto``.  When the manifest has
        recorded compute timings, they calibrate the ``auto`` policy so
        resumed campaigns skip the probe.  Results, artifacts and cache
        keys are identical for every tier.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if tier is None:
        tier = campaign.tier if campaign.tier is not None else "auto"
    store = cache.traces if cache is not None else None
    expansion = expand(campaign, store=store)
    path = (
        manifest_path(cache.root, campaign.name, expansion.digest)
        if cache is not None
        else None
    )
    manifest = CampaignManifest.open(path, campaign.name, expansion.digest)

    if limit is None:
        selected = list(expansion.cells)
    else:
        # A cell only counts as done if its artifact still exists -- the
        # manifest can outlive artifacts (prune/vacuum), and a limited
        # run must not skip cells it would have to recompute.
        done = manifest.done_digests()
        exists = _artifact_probe(cache)
        selected = [
            c for c in expansion.cells if c.digest not in done or not exists(c)
        ][:limit]

    by_digest = {c.digest: c for c in selected}
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    decisions: list = []
    start = last_flush = time.perf_counter()

    def on_cell(done_n: int, total: int, result: CellResult) -> None:
        nonlocal last_flush
        digest = cell_digest(result.spec)
        cell = by_digest.get(digest)
        if cell is not None:
            manifest.mark_done(
                digest, cell.coords, cached=result.cached, elapsed=result.elapsed
            )
            now = time.perf_counter()
            if now - last_flush >= FLUSH_INTERVAL_S:
                manifest.flush()
                last_flush = now
        if progress is not None:
            progress(done_n, total, result)

    try:
        results = run_many(
            [c.spec for c in selected],
            jobs=jobs,
            cache=cache,
            progress=on_cell,
            tier=tier,
            est_cell_s=manifest.mean_compute_seconds(),
            on_decision=decisions.append,
        )
        wall = time.perf_counter() - start
        hits = (cache.hits - hits0) if cache is not None else 0
        misses = (cache.misses - misses0) if cache is not None else len(selected)
        decision = decisions[0] if decisions else None
        manifest.record_run(
            wall,
            hits=hits,
            misses=misses,
            n_selected=len(selected),
            limit=limit,
            tier=decision.tier if decision is not None else None,
        )
    finally:
        # One flush however the run ends: an interrupted run still
        # records every cell it completed.
        manifest.flush()
    return CampaignRun(
        expansion=expansion,
        selected=selected,
        results=results,
        manifest=manifest,
        wall=wall,
        hits=hits,
        misses=misses,
        tier_decision=decision,
    )


@dataclass
class CampaignDrain:
    """Outcome of one runner's cooperative ``drain`` over a campaign.

    Unlike :class:`CampaignRun`, ``results`` holds only the cells *this*
    runner resolved -- the rest of the campaign was (or is being) drained
    by other runners sharing the cache root.  ``manifest`` reflects the
    merged completion state as of the final flush, so ``summary_line``
    reports campaign-wide progress even from one runner's vantage point.
    """

    expansion: Expansion
    runner: str
    results: list[CellResult] = field(default_factory=list)
    manifest: CampaignManifest | None = None
    wall: float = 0.0
    hits: int = 0
    misses: int = 0
    #: Claim batches this runner processed.
    batches: int = 0
    #: Cells adopted from expired leases (dead runners).
    stolen: int = 0
    #: One TierDecision per batch, in order.
    tier_decisions: list[TierDecision] = field(default_factory=list)

    @property
    def campaign(self) -> Campaign:
        return self.expansion.campaign

    def summary_line(self) -> str:
        counts = self.manifest.counts([c.digest for c in self.expansion.cells])
        stolen = f", {self.stolen} stolen" if self.stolen else ""
        return (
            f"campaign {self.campaign.name!r} drained by {self.runner!r}: "
            f"ran {len(self.results)} cells ({self.hits} from cache, "
            f"{self.misses} computed{stolen}) in {self.wall:.1f}s; "
            f"{counts['done']}/{counts['total']} cells done"
        )


def _default_runner_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _cut_drain_segment(cache: ResultCache, expansion: Expansion) -> str | None:
    """Pack every trace the campaign references into one segment file.

    The carried "segment sharing" optimisation: a drain calls
    :func:`run_many` once per claim batch, and without this each
    ``process+shm`` batch would re-pack the same columns.  Digests
    missing from the store are simply left out -- workers fall back to
    the store for those.  Returns the temp file's path (caller unlinks)
    or ``None`` when the campaign references no stored traces.
    """
    from repro.trace.segment import write_segment

    digests = sorted(
        {c.spec.trace_ref for c in expansion.cells if c.spec.trace_ref is not None}
    )
    rows = {}
    for digest in digests:
        try:
            rows[digest] = cache.traces.get(digest)
        except KeyError:
            continue
    if not rows:
        return None
    fd, path = tempfile.mkstemp(prefix="repro-drain-segment-", suffix=".bin")
    os.close(fd)
    write_segment(path, rows)
    return path


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
) -> CampaignDrain:
    """Cooperatively drain a campaign as one of N concurrent runners.

    The lease/claim protocol (:mod:`repro.campaign.lease`) partitions the
    pending cells among every runner process pointed at the same cache
    root: claim a batch of unleased pending cells (O_EXCL -- no two
    runners get the same cell), run it through the engine, flush the
    batch's completions to the shared manifest in one write, release the
    batch's leases, repeat until the *campaign* is done -- including cells other runners complete,
    which become visible through manifest refreshes between batches.  A
    heartbeat thread keeps this runner's leases fresh; leases whose
    runner died (SIGKILL -- no heartbeats for ``lease_ttl``) are stolen
    and their cells recomputed, the same resume semantics an interrupted
    single ``run`` has.

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
    if tier is None:
        tier = campaign.tier if campaign.tier is not None else "auto"
    runner_id = str(runner) if runner is not None else _default_runner_id()

    expansion = expand(campaign, store=cache.traces)
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    manifest = CampaignManifest.open(path, campaign.name, expansion.digest)
    leases = LeaseDir(
        lease_dir_path(cache.root, campaign.name, expansion.digest),
        runner=runner_id,
        ttl=lease_ttl,
    )
    manifest.heartbeat(runner_id)

    cells = {c.digest: c for c in expansion.cells}
    total = len(expansion.cells)
    completed = 0
    # The pending scan below re-checks every done cell once per batch.
    has_artifact = _artifact_probe(cache)

    segment = (
        _cut_drain_segment(cache, expansion)
        if jobs is None or jobs > 1
        else None
    )

    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(lease_ttl / 4.0):
            leases.heartbeat()

    beater = threading.Thread(
        target=_beat, name=f"lease-heartbeat-{runner_id}", daemon=True
    )
    beater.start()

    results: list[CellResult] = []
    decisions: list[TierDecision] = []
    # Cells marked done in memory but not yet flushed (their leases held).
    unflushed: list[str] = []
    hits0, misses0 = cache.hits, cache.misses
    n_stolen = n_batches = 0
    start = time.perf_counter()
    try:
        while True:
            manifest.refresh()
            done = manifest.done_digests()
            pending = [
                c
                for c in expansion.cells
                if c.digest not in done or not has_artifact(c)
            ]
            if not pending:
                break
            claimed, stolen = leases.claim_batch(
                (c.digest for c in pending), batch
            )
            got = claimed + stolen
            if not got:
                # Every pending cell is leased to a live runner; wait for
                # their completions (or their leases' expiry) to show up.
                time.sleep(poll_s)
                continue
            n_stolen += len(stolen)
            n_batches += 1

            def on_cell(done_n: int, batch_total: int, result: CellResult) -> None:
                nonlocal completed
                digest = cell_digest(result.spec)
                cell = cells.get(digest)
                if cell is not None:
                    manifest.mark_done(
                        digest,
                        cell.coords,
                        cached=result.cached,
                        elapsed=result.elapsed,
                        runner=runner_id,
                    )
                    unflushed.append(digest)
                completed += 1
                if progress is not None:
                    progress(completed, total, result)

            results.extend(
                run_many(
                    [cells[d].spec for d in got],
                    jobs=jobs,
                    cache=cache,
                    progress=on_cell,
                    tier=tier,
                    est_cell_s=manifest.mean_compute_seconds(),
                    on_decision=decisions.append,
                    segment_path=segment,
                )
            )
            # One flush per batch, and release strictly after it: a crash
            # between the two leaks leases over done cells, never a
            # released lease over an unrecorded one.
            manifest.flush()
            for digest in unflushed:
                leases.release(digest)
            unflushed.clear()
    finally:
        stop.set()
        beater.join(timeout=5.0)
        if unflushed:
            manifest.flush()
        leases.release_all()
        if segment is not None:
            try:
                os.unlink(segment)
            except OSError:
                pass
    wall = time.perf_counter() - start
    hits = cache.hits - hits0
    misses = cache.misses - misses0
    manifest.heartbeat(runner_id)
    last = decisions[-1] if decisions else None
    manifest.record_run(
        wall,
        hits=hits,
        misses=misses,
        n_selected=len(results),
        limit=None,
        tier=last.tier if last is not None else None,
        runner=runner_id,
        mode="drain",
    )
    manifest.flush()
    return CampaignDrain(
        expansion=expansion,
        runner=runner_id,
        results=results,
        manifest=manifest,
        wall=wall,
        hits=hits,
        misses=misses,
        batches=n_batches,
        stolen=n_stolen,
        tier_decisions=decisions,
    )


def prune_campaign(
    campaign: Campaign, cache: ResultCache, dry_run: bool = False
) -> tuple[list, Path | None]:
    """Retire one campaign: its cached artifacts plus its manifest.

    Expands the campaign to recover the exact cell set, removes the
    artifacts whose cache keys belong to it (via
    :meth:`ResultCache.prune` with the ``keys`` criterion -- cells
    shared with *other* sweeps are removed too, but re-running those
    sweeps simply recomputes them), and deletes the manifest file.
    ``dry_run`` reports without deleting.  Returns ``(artifact paths,
    manifest path or None)``; follow with ``vacuum`` to drop traces
    nothing references any more.
    """
    store = cache.traces
    expansion = expand(campaign, store=store)
    keys = set()
    for cell in expansion.cells:
        try:
            keys.add(cache.key_for(cell.spec))
        except KeyError:
            # Ref spec whose trace already left the store: its artifact
            # key cannot be recomputed, so there is nothing addressable
            # left to remove (vacuum handles any corrupt leftovers).
            continue
    removed = cache.prune(keys=keys, dry_run=dry_run) if keys else []
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    manifest_file: Path | None = None
    if path.is_file():
        manifest_file = path
        if not dry_run:
            path.unlink()
    return removed, manifest_file
