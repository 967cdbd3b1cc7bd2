"""Per-run packed-column trace segments: the ``process+shm`` transport.

The ``process+shm`` execution tier (:mod:`repro.runner.engine`) moves the
explicit base traces a spec list references **once** per run instead of
once per worker: the parent packs every referenced trace into a single
binary segment of contiguous numpy columns, workers map the file
read-only with :mod:`mmap` and hydrate ``trace_ref`` specs from it.  The
page cache makes the mapping physically shared between every worker on
the host -- the same effect as a ``multiprocessing.shared_memory``
block, without its resource-tracker lifetime hazards -- so per-cell data
movement stays O(digest) and per-run data movement O(distinct traces),
in the spirit of the little-communication-overhead allocation protocols
the runner subsystem cites.

Segment layout (little-endian)::

    6 bytes   magic  b"RSEG1\\n"
    8 bytes   uint64 index length in bytes
    n bytes   index JSON: {digest: [payload offset, row count] or
                                   [payload offset, row count, width]}
    ...       payload: per trace, ``width`` contiguous columns of
              job_id int64[n] | arrival f8[n] | size int64[n] | runtime f8[n]
              [| user_id int64[n] [| priority_class int64[n]]]

Columns round-trip exactly: the store's canonical row form is
``(int, float, int, float[, user_id[, priority_class]])`` and both int64
and IEEE binary64 represent those values losslessly, so a
segment-hydrated trace is tuple-identical to a
:meth:`~repro.trace.store.TraceStore.get` of the same digest -- which is
what keeps cache keys and artifacts byte-identical across execution
tiers.  A two-entry index row means width 4, so segments of tenant-free
traces are byte-identical to the pre-tenancy format; wider traces pad
ragged canonical rows with the column defaults (``-1``/``0``) on write
and re-collapse them on read.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.trace.store import TraceRow, canonical_trace

__all__ = [
    "TraceSegment",
    "SegmentBackedStore",
    "cut_segment",
    "write_segment",
    "SEGMENT_MAGIC",
]

#: Magic prefix identifying a packed trace segment file.
SEGMENT_MAGIC = b"RSEG1\n"

#: Per-column dtypes, in on-disk order; tenancy columns appear only in
#: traces whose canonical rows carry them (index ``width`` > 4).
_COLUMNS = (
    ("job_id", "<i8"),
    ("arrival", "<f8"),
    ("size", "<i8"),
    ("runtime", "<f8"),
    ("user_id", "<i8"),
    ("priority_class", "<i8"),
)

#: Pad values for the optional tenancy columns (canonical-row defaults).
_TAIL_DEFAULTS = (-1, 0)


def _pad_row(row, width: int) -> tuple:
    """``row`` widened to ``width`` with the canonical tenancy defaults."""
    if len(row) == width:
        return tuple(row)
    return tuple(row) + _TAIL_DEFAULTS[len(row) - 4 : width - 4]


def write_segment(path: str | Path, traces: Mapping[str, tuple]) -> int:
    """Pack ``traces`` (digest -> base-trace rows) into a segment file.

    Rows are canonicalised exactly like :meth:`TraceStore.put`, so a
    reader hydrates tuple-identical traces.  Returns the total bytes
    written.
    """
    index: dict[str, list[int]] = {}
    blobs: list[bytes] = []
    offset = 0
    for digest in sorted(traces):
        rows = canonical_trace(traces[digest])
        width = max((len(row) for row in rows), default=4)
        cols = list(zip(*(_pad_row(row, width) for row in rows)))
        if not cols:
            cols = [()] * width
        blob = b"".join(
            np.asarray(col, dtype=dtype).tobytes()
            for col, (_, dtype) in zip(cols, _COLUMNS)
        )
        index[digest] = [offset, len(rows)] if width == 4 else [offset, len(rows), width]
        blobs.append(blob)
        offset += len(blob)
    index_bytes = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(
        [SEGMENT_MAGIC, struct.pack("<Q", len(index_bytes)), index_bytes, *blobs]
    )
    Path(path).write_bytes(payload)
    return len(payload)


def cut_segment(store, digests) -> str | None:
    """Pack the stored traces behind ``digests`` into a fresh temp file.

    Returns its path (the caller unlinks it), or ``None`` when none of
    the digests is stored.  Digests missing from the store are left out:
    a worker hydrating one falls back to the store, which names it.
    """
    traces = {d: store.get(d) for d in sorted(set(digests)) if d in store}
    if not traces:
        return None
    fd, path = tempfile.mkstemp(prefix="repro-segment-", suffix=".bin")
    os.close(fd)
    write_segment(path, traces)
    return path


class TraceSegment:
    """Read-only mmap view over a packed trace segment.

    Workers open the segment lazily (first ``trace_ref`` hydration) and
    memoise decoded traces, so a worker computing many cells of the same
    workload touches the file once and the bytes once.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._fh.close()
            raise ValueError(f"trace segment {self.path} is empty") from None
        if self._mm[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            self.close()
            raise ValueError(f"{self.path} is not a trace segment (bad magic)")
        head = len(SEGMENT_MAGIC)
        (index_len,) = struct.unpack_from("<Q", self._mm, head)
        try:
            self._index: dict[str, list[int]] = json.loads(
                self._mm[head + 8 : head + 8 + index_len].decode()
            )
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.close()
            raise ValueError(f"trace segment {self.path} has a corrupt index") from None
        self._payload_start = head + 8 + index_len
        self._memo: dict[str, tuple[TraceRow, ...]] = {}

    def __contains__(self, digest: str) -> bool:
        return digest in self._index

    def digests(self) -> list[str]:
        """Digests packed into this segment (sorted)."""
        return sorted(self._index)

    def get(self, digest: str) -> tuple[TraceRow, ...]:
        """The trace behind ``digest``, tuple-identical to the store's form."""
        memo = self._memo.get(digest)
        if memo is not None:
            return memo
        entry = self._index.get(digest)
        if entry is None:
            raise KeyError(f"trace {digest} not in segment {self.path}")
        offset, n_rows = entry[0], entry[1]
        width = entry[2] if len(entry) > 2 else 4
        start = self._payload_start + offset
        cols = []
        for _, dtype in _COLUMNS[:width]:
            cols.append(np.frombuffer(self._mm, dtype=dtype, count=n_rows, offset=start))
            start += n_rows * 8
        full = zip(*(col.tolist() for col in cols))
        # Wider traces were padded to rectangular columns on write;
        # canonical_trace re-collapses trailing defaults so the tuples
        # match the store's ragged canonical form exactly.
        rows = tuple(full) if width == 4 else canonical_trace(full)
        self._memo[digest] = rows
        return rows

    def close(self) -> None:
        """Release the mapping (decoded traces stay usable)."""
        try:
            self._mm.close()
        finally:
            self._fh.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceSegment(path={str(self.path)!r}, traces={len(self._index)})"


class SegmentBackedStore:
    """Trace reader that prefers a segment, falling back to a store.

    Quacks like :class:`~repro.trace.store.TraceStore` for the one method
    spec hydration uses (:meth:`get`), which is what lets
    :func:`repro.runner.engine.run_cell` consume either transparently.
    A ref missing from the segment (e.g. a spec interned after the
    segment was cut) still hydrates from the on-disk store.
    """

    def __init__(self, segment: TraceSegment, fallback=None):
        self.segment = segment
        self.fallback = fallback

    def get(self, digest: str) -> tuple[TraceRow, ...]:
        """Rows for ``digest`` from the segment, else the fallback store."""
        if digest in self.segment:
            return self.segment.get(digest)
        if self.fallback is None:
            raise KeyError(
                f"trace {digest} in neither segment {self.segment.path} "
                "nor any fallback store"
            )
        return self.fallback.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self.segment or (
            self.fallback is not None and digest in self.fallback
        )
