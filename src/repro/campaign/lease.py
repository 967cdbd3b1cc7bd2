"""Cell leases: the claim protocol that lets N runners drain one campaign.

A *lease* is one JSON file per claimed cell under the campaign's lease
directory (``<cache-root>/campaigns/<name>-<digest12>.leases/``).  The
protocol is pure filesystem atomics, so it works for any set of runner
processes sharing a cache root -- one host or several over a shared
filesystem:

* **Claim** is ``O_CREAT | O_EXCL``: exactly one runner can create a
  cell's lease file, so concurrently draining runners partition the
  pending cells with no coordinator and no duplicated compute.
* **Heartbeat**: a runner periodically rewrites its lease files
  (temp file + :func:`os.replace`) with a fresh ``heartbeat_at``.  A
  lease whose heartbeat is older than its TTL is *expired* -- the
  runner that held it is presumed dead (SIGKILL leaves no chance to
  clean up).
* **Steal** reclaims expired leases under a directory-wide lock file
  (:class:`FileLock`), so two runners never both adopt the same dead
  runner's cell: the stealer re-reads the lease inside the lock,
  unlinks it only if still expired, and re-claims with ``O_EXCL``.
* **Release** unlinks a batch's leases after the one manifest flush
  that records the batch's completions, in that order -- a crash
  between the two at worst leaks leases over *done* cells, which the
  next claimer detects from the manifest and skips.

Completion itself is never recorded here: the manifest (and the
content-addressed artifact cache under it) stays the source of truth,
which is what makes the worst-case races benign -- a cell claimed twice
across a steal window is served from the artifact cache, not recomputed.

>>> import tempfile
>>> with tempfile.TemporaryDirectory() as root:
...     a = LeaseDir(root, runner="a")
...     b = LeaseDir(root, runner="b")
...     a.claim("cell-1"), b.claim("cell-1"), b.claim("cell-2")
(True, False, True)
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FileLock", "Lease", "LeaseDir", "DEFAULT_LEASE_TTL", "lease_dir_path"]

#: Default lease time-to-live in seconds: a runner missing this many
#: seconds of heartbeats is presumed dead and its cells become stealable.
#: Heartbeats fire every TTL/4, so transient stalls of a live runner
#: would need to exceed 45s (at the default) before a steal can race it.
DEFAULT_LEASE_TTL = 60.0

#: Suffix of a campaign's lease directory, next to its manifest.
LEASE_DIRNAME_SUFFIX = ".leases"


def lease_dir_path(cache_root: str | Path, name: str, digest: str) -> Path:
    """Lease directory for a campaign, next to its manifest file."""
    from repro.campaign.manifest import MANIFEST_DIRNAME

    return (
        Path(cache_root)
        / MANIFEST_DIRNAME
        / f"{name}-{digest[:12]}{LEASE_DIRNAME_SUFFIX}"
    )


class FileLock:
    """Advisory exclusive lock backed by an ``O_EXCL`` lock file.

    Blocks up to ``timeout_s`` acquiring, polling with a short sleep.  A
    lock file older than ``stale_s`` is presumed abandoned by a crashed
    holder and broken; every real critical section here (a manifest
    flush, a lease steal) takes milliseconds, so any age near
    ``stale_s`` means the holder died between create and unlink.  Used
    as a context manager::

        with FileLock(path):
            ...read-merge-write...
    """

    def __init__(self, path: str | Path, timeout_s: float = 10.0, stale_s: float = 10.0):
        self.path = Path(path)
        self.timeout_s = float(timeout_s)
        self.stale_s = float(stale_s)

    def acquire(self) -> None:
        """Take the lock, breaking stale lock files; raises TimeoutError."""
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat; retry
                if age > self.stale_s:
                    # Presumed-dead holder.  The unlink can in principle
                    # race another breaker removing a *fresh* lock it
                    # just created, but only within the stat->unlink
                    # window of an already-pathological (crashed-holder)
                    # path; the retry loop re-serializes either way.
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire lock {self.path} within "
                        f"{self.timeout_s:g}s (held {age:.1f}s)"
                    ) from None
                time.sleep(0.01)
                continue
            os.write(fd, f"{os.getpid()}\n".encode())
            os.close(fd)
            return

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class Lease:
    """Decoded contents of one lease file."""

    digest: str
    runner: str
    acquired_at: float
    heartbeat_at: float
    ttl: float

    def expired(self, now: float | None = None) -> bool:
        """Whether the holder has missed a full TTL of heartbeats."""
        return (now if now is not None else time.time()) > self.heartbeat_at + self.ttl


class LeaseDir:
    """One runner's view of a campaign's lease directory.

    Thread-safe for the one concurrent pattern the drain loop uses: the
    main thread claims/releases while a heartbeat thread refreshes the
    currently held leases.
    """

    #: Lock file serializing steals (never plain claims, which are
    #: already atomic via ``O_EXCL``).
    STEAL_LOCK = ".steal.lock"

    def __init__(self, root: str | Path, runner: str, ttl: float = DEFAULT_LEASE_TTL):
        if ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl}")
        self.root = Path(root)
        self.runner = str(runner)
        self.ttl = float(ttl)
        self._held: set[str] = set()
        self._guard = threading.Lock()

    def path_for(self, digest: str) -> Path:
        """Lease file for one cell digest."""
        return self.root / f"{digest}.json"

    def held(self) -> set[str]:
        """Digests this runner currently holds (snapshot)."""
        with self._guard:
            return set(self._held)

    # -- claim ---------------------------------------------------------
    def claim(self, digest: str) -> bool:
        """Try to claim one cell; False if any lease file already exists."""
        self.root.mkdir(parents=True, exist_ok=True)
        now = time.time()
        payload = self._payload(digest, acquired_at=now, heartbeat_at=now)
        try:
            fd = os.open(
                self.path_for(digest), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.write(fd, payload)
        os.close(fd)
        with self._guard:
            self._held.add(digest)
        return True

    def claim_batch(self, digests, n: int) -> tuple[list[str], list[str]]:
        """Claim up to ``n`` cells from ``digests``, stealing expired leases.

        Returns ``(claimed, stolen)``: fresh ``O_EXCL`` claims first;
        when those alone cannot fill the batch, expired leases observed
        along the way are re-claimed under the steal lock.  Cells whose
        leases are live (another runner, still heartbeating) are left
        alone.
        """
        claimed: list[str] = []
        expired: list[str] = []
        now = time.time()
        for digest in digests:
            if len(claimed) >= n:
                break
            if self.claim(digest):
                claimed.append(digest)
                continue
            lease = self.read(digest)
            if lease is None or lease.expired(now):
                expired.append(digest)
        stolen: list[str] = []
        if len(claimed) < n and expired:
            stolen = self.steal(expired, n - len(claimed))
        return claimed, stolen

    # -- inspect -------------------------------------------------------
    def read(self, digest: str) -> Lease | None:
        """Decode one lease file; ``None`` for missing/corrupt files.

        A corrupt lease (torn write from a crashed runner) reads as
        ``None``, which callers treat like an expired lease: stealable.
        """
        try:
            data = json.loads(self.path_for(digest).read_text())
            return Lease(
                digest=digest,
                runner=str(data["runner"]),
                acquired_at=float(data["acquired_at"]),
                heartbeat_at=float(data["heartbeat_at"]),
                ttl=float(data["ttl"]),
            )
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def live(self, digests) -> dict[str, Lease]:
        """The unexpired leases among ``digests`` (any runner's)."""
        now = time.time()
        out: dict[str, Lease] = {}
        for digest in digests:
            lease = self.read(digest)
            if lease is not None and not lease.expired(now):
                out[digest] = lease
        return out

    # -- steal ---------------------------------------------------------
    def steal(self, digests, n: int) -> list[str]:
        """Adopt up to ``n`` expired leases, serialized by the steal lock.

        Each candidate is re-read inside the lock (the owner may have
        heartbeated, or released and a third runner claimed) and only an
        actually-expired lease is unlinked and re-claimed.
        """
        stolen: list[str] = []
        try:
            lock = FileLock(
                self.root / self.STEAL_LOCK, timeout_s=5.0, stale_s=10.0
            )
            with lock:
                now = time.time()
                for digest in digests:
                    if len(stolen) >= n:
                        break
                    lease = self.read(digest)
                    if lease is not None and not lease.expired(now):
                        continue  # owner came back to life
                    # Remove the dead lease file whether it decoded
                    # (expired) or not (torn write): both block the
                    # O_EXCL re-claim.  A since-released lease unlinks
                    # as a no-op.
                    try:
                        self.path_for(digest).unlink()
                    except OSError:
                        pass
                    if self.claim(digest):
                        stolen.append(digest)
        except TimeoutError:
            # Another runner is mid-steal and stuck past our patience;
            # come back on the next drain iteration.
            return stolen
        return stolen

    # -- keep-alive ----------------------------------------------------
    def heartbeat(self) -> None:
        """Refresh every held lease's ``heartbeat_at`` (temp + replace).

        A held lease that disappeared or changed owner (stolen after an
        undeserved expiry, e.g. a laptop suspend) is silently dropped
        from the held set -- the thief owns the cell now and the
        artifact cache deduplicates whatever both compute.
        """
        now = time.time()
        for digest in self.held():
            lease = self.read(digest)
            if lease is None or lease.runner != self.runner:
                with self._guard:
                    self._held.discard(digest)
                continue
            payload = self._payload(
                digest, acquired_at=lease.acquired_at, heartbeat_at=now
            )
            tmp = self.root / f".hb.{os.getpid()}.tmp"
            try:
                tmp.write_bytes(payload)
                os.replace(tmp, self.path_for(digest))
            except OSError:
                pass

    # -- release -------------------------------------------------------
    def release(self, digest: str) -> None:
        """Drop one held lease (only if still ours)."""
        with self._guard:
            self._held.discard(digest)
        lease = self.read(digest)
        if lease is not None and lease.runner == self.runner:
            try:
                self.path_for(digest).unlink()
            except OSError:
                pass

    def release_all(self) -> None:
        """Drop every lease this runner still holds (crash-path cleanup)."""
        for digest in self.held():
            self.release(digest)

    def _payload(self, digest: str, acquired_at: float, heartbeat_at: float) -> bytes:
        return json.dumps(
            {
                "digest": digest,
                "runner": self.runner,
                "pid": os.getpid(),
                "acquired_at": acquired_at,
                "heartbeat_at": heartbeat_at,
                "ttl": self.ttl,
            },
            sort_keys=True,
        ).encode()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeaseDir(root={str(self.root)!r}, runner={self.runner!r}, "
            f"ttl={self.ttl:g})"
        )
