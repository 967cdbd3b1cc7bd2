"""The campaign manifest: resumable completion state next to the cache.

A campaign run writes ``<cache-root>/campaigns/<name>-<digest12>.json``
recording, per cell digest, whether the cell completed, whether it came
from the artifact cache, and its compute time -- plus one entry per
``run`` invocation with wall time and hit/miss counts.  The file is
written through a temp file + :func:`os.replace`: a ``run`` flushes it
at most once per second while cells complete and once more when it
ends (normally or by an exception), a ``drain`` runner once per claim
batch.  An interrupted run therefore leaves a valid manifest behind and
the next ``run`` resumes where it stopped.  Completion itself is
durable in the content-addressed artifact cache the moment a cell's
artifact lands, so a cell whose record a crash kept out of the manifest
is merely served as a cache hit on the next run -- never recomputed.
The manifest is what lets ``status`` report progress without touching
a single artifact.

The filename carries the first 12 hex chars of the campaign digest, so
editing a campaign (or re-scaling it) starts a fresh manifest instead of
silently mixing state from two different cell grids; the full digest is
also stored inside and verified on load.

**Concurrency.**  One manifest file may be flushed by several processes
at once -- cooperating ``drain`` runners, or simply two ``run``
invocations racing.  :meth:`CampaignManifest.flush` is therefore a
read-merge-write under a lock file (:class:`~repro.campaign.lease.FileLock`):
the on-disk state is re-read inside the lock, merged cell-by-cell
(:meth:`CampaignManifest.merge` -- a computed record always beats a
cache-hit record, run history is unioned, runner heartbeats keep the
freshest timestamp), and the result lands via temp file +
:func:`os.replace`.  No runner's completions can clobber another's, and
a crash at any instant leaves either the old or the new file -- never a
torn one.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["CampaignManifest", "manifest_path", "MANIFEST_DIRNAME"]

#: Subdirectory of the cache root holding campaign manifests.
MANIFEST_DIRNAME = "campaigns"

#: Manifest schema version.
MANIFEST_FORMAT = 1


def manifest_path(cache_root: str | Path, name: str, digest: str) -> Path:
    """Manifest file for a campaign identified by name + expansion digest."""
    return Path(cache_root) / MANIFEST_DIRNAME / f"{name}-{digest[:12]}.json"


def _prefer(new: dict, old: dict) -> bool:
    """Whether ``new`` should replace ``old`` when merging cell records.

    Same precedence :meth:`CampaignManifest.mark_done` applies in
    memory: a done record beats anything else, a computed record beats a
    cache hit (its ``elapsed`` is real), and between equals the earlier
    ``finished_at`` -- the original completion -- wins.
    """
    if not isinstance(new, dict):
        return False
    if (new.get("status") == "done") != (old.get("status") == "done"):
        return new.get("status") == "done"
    if new.get("cached", True) != old.get("cached", True):
        return not new.get("cached", True)
    return new.get("finished_at", 0.0) < old.get("finished_at", 0.0)


@dataclass
class CampaignManifest:
    """Mutable completion record of one expanded campaign.

    ``path=None`` keeps the manifest purely in memory (used when running
    without a cache); otherwise :meth:`flush` persists it atomically.
    """

    name: str
    campaign_digest: str
    path: Path | None = None
    cells: dict = field(default_factory=dict)  # cell digest -> record dict
    runs: list = field(default_factory=list)
    runners: dict = field(default_factory=dict)  # runner id -> heartbeat record
    created_at: float = 0.0
    updated_at: float = 0.0
    #: mtime_ns of the on-disk file as of our last read or write; lets
    #: :meth:`flush` skip the merge read-back when nobody else wrote.
    _disk_mtime_ns: int | None = None

    # -- load/store ----------------------------------------------------
    @classmethod
    def open(cls, path: Path | None, name: str, campaign_digest: str) -> "CampaignManifest":
        """Load the manifest at ``path``, or start a fresh one.

        A file whose stored digest does not match ``campaign_digest``
        (possible only if someone renamed a manifest by hand, since the
        digest is part of the filename) is discarded rather than trusted.
        """
        manifest = cls(
            name=name,
            campaign_digest=campaign_digest,
            path=Path(path) if path is not None else None,
            created_at=time.time(),
        )
        if path is None or not Path(path).is_file():
            return manifest
        try:
            data = json.loads(Path(path).read_text())
            mtime_ns = Path(path).stat().st_mtime_ns
        except (OSError, json.JSONDecodeError):
            return manifest
        if (
            not isinstance(data, dict)
            or data.get("format") != MANIFEST_FORMAT
            or data.get("campaign_digest") != campaign_digest
        ):
            return manifest
        manifest.cells = dict(data.get("cells", {}))
        manifest.runs = list(data.get("runs", []))
        manifest.runners = dict(data.get("runners", {}))
        manifest.created_at = data.get("created_at", manifest.created_at)
        manifest.updated_at = data.get("updated_at", 0.0)
        manifest._disk_mtime_ns = mtime_ns
        return manifest

    def to_dict(self) -> dict:
        data = {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "campaign_digest": self.campaign_digest,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "cells": self.cells,
            "runs": self.runs,
        }
        # Written only once a runner has heartbeated, so single-process
        # manifests keep their exact pre-drain shape.
        if self.runners:
            data["runners"] = self.runners
        return data

    def merge(self, data: dict) -> None:
        """Fold another snapshot of this manifest into this one.

        The merge rules mirror :meth:`mark_done`: per cell, a *computed*
        record always beats a cache-hit record, and between two records
        of the same kind the earlier ``finished_at`` (the original) is
        kept.  Run history is unioned (exact-duplicate records -- our
        own, read back from disk -- collapse), ordered by start time;
        runner heartbeats keep the freshest timestamp per runner.  Used
        by :meth:`flush` against the on-disk state and by bundle import
        against a bundled manifest.
        """
        if not isinstance(data, dict):
            return
        for digest, rec in (data.get("cells") or {}).items():
            mine = self.cells.get(digest)
            if mine is None or _prefer(rec, mine):
                self.cells[digest] = rec
        merged = list(self.runs)
        for rec in data.get("runs") or []:
            if rec not in merged:
                merged.append(rec)
        merged.sort(key=lambda rec: rec.get("started_at", 0.0))
        self.runs = merged
        for runner, rec in (data.get("runners") or {}).items():
            mine = self.runners.get(runner)
            if mine is None or rec.get("heartbeat_at", 0.0) > mine.get(
                "heartbeat_at", 0.0
            ):
                self.runners[runner] = rec

    def refresh(self) -> None:
        """Merge the current on-disk state into this manifest (read-only).

        What a drain runner's poll loop calls between batches: other
        runners' completions become visible without writing anything.
        Skipped when the file's mtime shows nobody wrote since our last
        read or write; invalid/foreign files are ignored, exactly as in
        :meth:`open`.
        """
        if self.path is None or not self.path.is_file():
            return
        try:
            mtime_ns = self.path.stat().st_mtime_ns
            if mtime_ns == self._disk_mtime_ns:
                return
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if (
            isinstance(data, dict)
            and data.get("format") == MANIFEST_FORMAT
            and data.get("campaign_digest") == self.campaign_digest
        ):
            self.merge(data)
            self._disk_mtime_ns = mtime_ns

    def flush(self) -> None:
        """Concurrency-safely persist (no-op for in-memory manifests).

        Under the manifest's lock file: re-read whatever is on disk
        (skipped when the file's mtime proves we were the last writer),
        :meth:`merge` it, then write through a temp file +
        :func:`os.replace`.  Concurrent runners flushing disjoint cells
        therefore both land, and readers never observe a torn file.
        """
        if self.path is None:
            return
        from repro.campaign.lease import FileLock

        self.updated_at = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / f"{self.path.name}.tmp{os.getpid()}"
        with FileLock(self.path.with_name(self.path.name + ".lock")):
            try:
                disk_mtime_ns = self.path.stat().st_mtime_ns
            except OSError:
                disk_mtime_ns = None
            if disk_mtime_ns is not None and disk_mtime_ns != self._disk_mtime_ns:
                try:
                    data = json.loads(self.path.read_text())
                except (OSError, json.JSONDecodeError):
                    data = None
                if (
                    isinstance(data, dict)
                    and data.get("format") == MANIFEST_FORMAT
                    and data.get("campaign_digest") == self.campaign_digest
                ):
                    self.merge(data)
            tmp.write_text(json.dumps(self.to_dict(), sort_keys=True))
            # The rename preserves the temp file's mtime, so stat it
            # *before* the replace: if someone overwrites us later, the
            # next flush sees a foreign mtime and merges.
            self._disk_mtime_ns = tmp.stat().st_mtime_ns
            os.replace(tmp, self.path)

    # -- cell state ----------------------------------------------------
    def heartbeat(self, runner: str) -> None:
        """Record (in memory) that ``runner`` is alive right now.

        Lands on disk with the next :meth:`flush`; merged across
        processes by freshest timestamp.  This is observability for
        ``status`` -- liveness for the claim protocol itself lives in
        the lease files (:mod:`repro.campaign.lease`), which expire
        per-cell.
        """
        self.runners[str(runner)] = {
            "heartbeat_at": time.time(),
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }

    def is_done(self, digest: str) -> bool:
        return self.cells.get(digest, {}).get("status") == "done"

    def done_digests(self) -> set[str]:
        return {d for d, rec in self.cells.items() if rec.get("status") == "done"}

    def mark_done(
        self,
        digest: str,
        coords: dict,
        cached: bool,
        elapsed: float,
        runner: str | None = None,
    ) -> None:
        """Record a completed cell.

        A cache hit for a cell this manifest already saw *computed* adds
        no information, so the original compute record (its real
        ``elapsed``) is preserved -- warm re-runs must not erase the
        timings :meth:`mean_compute_seconds` calibrates the engine's
        ``auto`` tier with.  ``runner`` tags the record in drain mode so
        a multi-runner campaign shows who computed what.
        """
        prior = self.cells.get(digest)
        if (
            cached
            and prior is not None
            and prior.get("status") == "done"
            and not prior.get("cached", True)
        ):
            return
        record = {
            "status": "done",
            "coords": coords,
            "cached": bool(cached),
            "elapsed": float(elapsed),
            "finished_at": time.time(),
        }
        if runner is not None:
            record["runner"] = str(runner)
        self.cells[digest] = record

    def record_run(
        self,
        wall: float,
        hits: int,
        misses: int,
        n_selected: int,
        limit: int | None,
        tier: str | None = None,
        runner: str | None = None,
        mode: str | None = None,
    ) -> None:
        """Append one ``run``/``drain`` invocation's accounting.

        ``runner`` and ``mode`` (``"drain"``) are recorded only when
        given, keeping plain ``run`` records in their original shape.
        """
        record = {
            "started_at": time.time() - wall,
            "wall": float(wall),
            "hits": int(hits),
            "misses": int(misses),
            "n_selected": int(n_selected),
            "limit": limit,
        }
        if tier is not None:
            record["tier"] = tier
        if runner is not None:
            record["runner"] = str(runner)
        if mode is not None:
            record["mode"] = mode
        self.runs.append(record)

    def mean_compute_seconds(self) -> float | None:
        """Mean wall seconds of the cells this manifest saw *computed*.

        The calibration the engine's ``auto`` tier uses instead of
        probing: cells served from the cache (``cached``) carry no
        compute time and are excluded.  ``None`` until at least one cell
        has been computed.
        """
        samples = [
            rec.get("elapsed", 0.0)
            for rec in self.cells.values()
            if rec.get("status") == "done" and not rec.get("cached")
        ]
        if not samples:
            return None
        return sum(samples) / len(samples)

    # -- accounting ----------------------------------------------------
    def counts(self, cell_digests) -> dict:
        """Completion counts for the given expansion's cell digests."""
        cell_digests = list(cell_digests)
        done = cached = 0
        compute_s = 0.0
        for digest in cell_digests:
            rec = self.cells.get(digest)
            if rec is None or rec.get("status") != "done":
                continue
            done += 1
            if rec.get("cached"):
                cached += 1
            compute_s += rec.get("elapsed", 0.0)
        total = len(cell_digests)
        return {
            "total": total,
            "done": done,
            "pending": total - done,
            "cached": cached,
            "computed": done - cached,
            "compute_seconds": compute_s,
        }
