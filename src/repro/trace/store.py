"""Content-addressed workload store.

Explicit base traces (real SWF logs, the boosted Fig 9/10 workload) used
to be embedded row-by-row in every :class:`~repro.runner.spec.ExperimentSpec`
that referenced them -- thousands of rows pickled into each worker dispatch
and serialized into each cell's cache artifact.  This module stores a trace
*once*, keyed by the SHA-256 of its canonical JSON form, under
``<cache-root>/traces/<digest>.json``; everything else (specs, artifacts,
worker payloads) carries only the 64-character digest.

The digest doubles as the identity used by the experiment cache: an
interned spec hashes its trace's rows in place of the digest, so a spec
referencing a trace by digest has the *byte-identical* cache key of the
same spec carrying the rows inline (see
:meth:`~repro.runner.spec.ExperimentSpec.cache_key`).  Interning therefore
never invalidates existing ``.repro-cache/`` artifacts.

Store files are immutable once written (same digest == same bytes), which
makes concurrent writers trivially safe: writes go through a temp file and
:func:`os.replace`, and a file that already exists is simply kept.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path

__all__ = [
    "TraceStore",
    "trace_digest",
    "default_cache_root",
    "default_store",
    "TRACE_STORE_DIRNAME",
]

#: Serialized base-trace row: (job_id, arrival, size, runtime) optionally
#: extended with (user_id, priority_class).  Rows collapse to the shortest
#: form whose trailing fields are all defaults (priority_class 0, user_id
#: -1), so tenancy-free traces keep their historical 4-column bytes and
#: digests.
TraceRow = tuple[int, float, int, float] | tuple[int, float, int, float, int] | tuple[int, float, int, float, int, int]

#: Subdirectory of the cache root holding interned traces.
TRACE_STORE_DIRNAME = "traces"

#: Default cache directory name (created in the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_root() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` if set, else ``./.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def _canon_row(row) -> list:
    """One normalised row, collapsed to drop trailing default tenancy."""
    j, a, s, r = row[0], row[1], row[2], row[3]
    user = int(row[4]) if len(row) > 4 else -1
    cls = int(row[5]) if len(row) > 5 else 0
    out = [int(j), float(a), int(s), float(r)]
    if cls != 0:
        out += [user, cls]
    elif user != -1:
        out.append(user)
    return out


def _canonical_rows(rows) -> list[list]:
    """Type-normalised row lists (int, float, int, float[, user, class])."""
    return [_canon_row(row) for row in rows]


def canonical_trace(rows) -> tuple[TraceRow, ...]:
    """The normalised tuple form of a trace (what specs and the store hold).

    Tenancy columns appear only when non-default, so a trace without
    tenant information is byte- and digest-identical to its historical
    4-column form:

    >>> canonical_trace([(0, 0, "4", 10)])
    ((0, 0.0, 4, 10.0),)
    >>> canonical_trace([(0, 0, 4, 10, 3), (1, 1, 2, 5, -1, 0)])
    ((0, 0.0, 4, 10.0, 3), (1, 1.0, 2, 5.0))
    >>> canonical_trace([(0, 0, 4, 10, -1, 2)])
    ((0, 0.0, 4, 10.0, -1, 2),)
    """
    return tuple(tuple(row) for row in _canonical_rows(rows))


def trace_digest(rows) -> str:
    """SHA-256 hex digest of the canonical JSON form of a base trace.

    This is the content address: two traces share a digest iff their
    normalised rows serialize to the same bytes.  It is also exactly the
    fragment an inline spec contributes to its cache key, which is what
    keeps interning cache-key-neutral.

    >>> trace_digest([(0, 0.0, 4, 10.0)])[:12]
    '83eb952851e7'
    >>> trace_digest(((0, 0, 4, 10),)) == trace_digest([(0, 0.0, 4, 10.0)])
    True
    """
    payload = json.dumps(_canonical_rows(rows), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Small cross-instance memo so a worker hydrating one trace for many cells
#: (or a cache decoding many artifacts) reads it from disk once.
_MEMO: OrderedDict[tuple[str, str], tuple[TraceRow, ...]] = OrderedDict()
_MEMO_CAP = 8


class TraceStore:
    """Write-once, digest-keyed JSON store for base traces.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  ``None`` uses
        ``<default cache root>/traces``.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = default_cache_root() / TRACE_STORE_DIRNAME
        self.root = Path(root)

    # -- paths ---------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Store file for ``digest``."""
        return self.root / f"{digest}.json"

    # -- write ---------------------------------------------------------
    def put(self, rows) -> str:
        """Intern a base trace; returns its digest.

        Idempotent: a trace already present is not rewritten (the content
        address guarantees the existing bytes are equivalent).
        """
        rows = _canonical_rows(rows)
        payload = json.dumps(rows, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        path = self.path_for(digest)
        if not path.is_file():
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(payload)
            os.replace(tmp, path)
        _memo_put(self.root, digest, canonical_trace(rows))
        return digest

    # -- read ----------------------------------------------------------
    def get(self, digest: str) -> tuple[TraceRow, ...]:
        """The trace behind ``digest`` as normalised row tuples.

        Raises
        ------
        KeyError
            If the digest is not in the store (e.g. a ref-spec shipped to a
            machine whose store was never populated).
        ValueError
            If the stored bytes no longer hash to ``digest`` (corruption).
        """
        memo = _MEMO.get((str(self.root), digest))
        if memo is not None:
            _MEMO.move_to_end((str(self.root), digest))
            return memo
        path = self.path_for(digest)
        try:
            payload = path.read_text()
        except OSError:
            raise KeyError(
                f"trace {digest} not in store {self.root} -- intern it first "
                "(TraceStore.put) or run against the cache that produced the ref"
            ) from None
        if hashlib.sha256(payload.encode()).hexdigest() != digest:
            raise ValueError(f"trace store corruption: {path} does not match its digest")
        rows = canonical_trace(json.loads(payload))
        _memo_put(self.root, digest, rows)
        return rows

    def __contains__(self, digest: str) -> bool:
        return (str(self.root), digest) in _MEMO or self.path_for(digest).is_file()

    # -- maintenance / bulk access -------------------------------------
    def digests(self) -> Iterator[str]:
        """Digests of every stored trace (sorted)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def size_bytes(self) -> int:
        """Total on-disk bytes of stored traces."""
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*.json"))

    def remove(self, digest: str) -> bool:
        """Delete one trace; returns whether a file was removed."""
        _MEMO.pop((str(self.root), digest), None)
        try:
            self.path_for(digest).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Delete every stored trace; returns how many were removed."""
        return sum(1 for digest in list(self.digests()) if self.remove(digest))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceStore(root={str(self.root)!r})"


def _memo_put(root: Path, digest: str, rows: tuple[TraceRow, ...]) -> None:
    _MEMO[(str(root), digest)] = rows
    _MEMO.move_to_end((str(root), digest))
    while len(_MEMO) > _MEMO_CAP:
        _MEMO.popitem(last=False)


def default_store() -> TraceStore:
    """Store under the default cache root (``$REPRO_CACHE_DIR`` aware)."""
    return TraceStore()
