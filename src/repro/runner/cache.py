"""On-disk artifact cache for experiment cells.

One artifact per cell under the cache root (default ``.repro-cache/``,
overridable via the ``REPRO_CACHE_DIR`` environment variable), named by
the cell digest (:func:`~repro.runner.spec.cell_digest`, the SHA-256 of
the spec's canonical JSON).  The key is pure: an explicit trace enters
it as its ``trace_ref`` content address, so naming an artifact never
reads the workload store.  The stored artifact embeds the cell's spec,
so a hit is validated against the requesting spec -- a stale or colliding
file degrades to a miss instead of returning wrong numbers.  Writes go
through a temp file + :func:`os.replace` so concurrent runs never observe
a torn artifact.

Artifact format 2 stores explicit traces by reference into the sibling
workload store (``<root>/traces/``, see :mod:`repro.trace.store`) and
packs per-job results into compact rows: fields the base trace already
determines (arrival, size, quota) are dropped and rebuilt on load, the
two hop metrics are stored as their exact integer numerators, and the
JSON is gzip-compressed on disk (``<key>.json.gz``).  Every encode is
verified by an immediate decode round-trip, so a cache hit is
bit-identical to the computed cell; cells that cannot be packed
losslessly fall back to full rows.  Format 2 under ``<key>.json.gz`` is
the only form read: a cache written before it (plain ``<key>.json``
with inline traces) is cold, and :meth:`ResultCache.vacuum` removes its
files as unreadable.

Artifacts are **byte-deterministic** in the cell's content: the gzip
header carries no timestamp or filename and volatile fields (compute
wall time) are not stored, so within one environment the same spec
produces the identical artifact file no matter when, or through which
execution tier, it ran.  That is what the cross-tier determinism tests
compare.  (Across machines the decompressed payload is still identical,
but the compressed bytes are only guaranteed per zlib build --
different zlib implementations may emit different streams for the same
input.)

A :class:`ResultCache` memoises the results its ``get`` decoded (up to
:data:`DECODED_MEMO_CAP`), so a campaign run followed by its reports
reads and decodes each artifact once.  Every ``get`` still stats the
file and re-decodes it when its ``(mtime_ns, size, inode)`` changed.
"""

from __future__ import annotations

import gzip
import json
import os
import stat
import time
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from repro.runner.spec import (
    CellResult,
    ExperimentSpec,
    _job_from_list,
    _job_to_list,
    cell_digest,
    summary_from_dict,
    summary_to_dict,
)
from repro.sched.job import Job, JobResult
from repro.trace.store import TRACE_STORE_DIRNAME, TraceStore, default_cache_root

__all__ = [
    "ResultCache",
    "default_cache_root",
    "CACHE_FORMAT",
    "VacuumReport",
    "pack_job_results",
    "unpack_job_results",
]

#: Artifact schema version written and read by this code.
CACHE_FORMAT = 2

#: Decoded results one :class:`ResultCache` keeps for repeat ``get`` calls
#: (a warm campaign run and its reports read every cell more than once).
DECODED_MEMO_CAP = 256


def _file_signature(path: Path) -> tuple[int, int, int] | None:
    """``(st_mtime_ns, st_size, st_ino)`` of a regular file, else ``None``.

    A rewrite by :meth:`ResultCache.put` lands through :func:`os.replace`
    and so changes the inode: a decode memoised under an older signature
    is never served.
    """
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return (st.st_mtime_ns, st.st_size, st.st_ino)


# ----------------------------------------------------------------------
# Compact per-job codec
# ----------------------------------------------------------------------
#
# Packed jobs are parallel columns of the true simulation outputs only;
# everything the spec already determines is rebuilt on load:
#
# * job_id / arrival / size / quota come from ``build_jobs`` (rows align
#   with it: both are ascending in job_id),
# * ``pairwise_hops == pw_total / (size*(size-1)/2)`` and
#   ``message_hops == mh_total / message_pairs`` store the exact integer
#   numerators and reconstruct the IEEE division the simulator performed,
# * a start time is one of three event kinds: the job's own (contracted)
#   arrival (``null``), another job's completion -- the simulator starts
#   queued jobs at completion instants, so the float is *identical* --
#   (int index into the completion column), or a literal float.
#
# Unpacking is therefore lossless -- and verified to be, by an immediate
# decode-and-compare at encode time, with full rows as the fallback.

def pack_job_results(jobs: list[JobResult]) -> dict | None:
    """Compact column dict for ``jobs``, or ``None`` when not packable."""
    try:
        completions = [j.completion for j in jobs]
        comp_index: dict[float, int] = {}
        for i, c in enumerate(completions):
            comp_index.setdefault(c, i)
        starts: list = []
        pw_totals, mh_totals, pairs_col, ncomp_col = [], [], [], []
        for j in jobs:
            if j.start == j.arrival:
                starts.append(None)
            else:
                starts.append(comp_index.get(j.start, j.start))
            den = j.size * (j.size - 1) / 2
            pw_totals.append(round(j.pairwise_hops * den) if j.size > 1 else 0)
            mh_totals.append(
                round(j.message_hops * j.message_pairs) if j.message_pairs else 0
            )
            pairs_col.append(j.message_pairs)
            ncomp_col.append(j.n_components)
    except (TypeError, ValueError, OverflowError):
        return None
    packed = {
        "start": starts,
        "completion": completions,
        "pw_total": pw_totals,
        "mh_total": mh_totals,
        "message_pairs": pairs_col,
        "n_components": ncomp_col,
    }
    # A held column is written only when some job actually held more than
    # it requested (page/submesh padding): everywhere else "held == size"
    # is rebuilt on load, keeping artifact bytes identical to the
    # pre-``held`` format.
    if any(j.held and j.held != j.size for j in jobs):
        packed["held"] = [j.held for j in jobs]
    return packed


def unpack_job_results(cols: dict, base_jobs: list[Job]) -> list[JobResult]:
    """Inverse of :func:`pack_job_results` given the cell's built job list."""
    completions = cols["completion"]
    if len(base_jobs) != len(completions):
        raise ValueError("packed jobs do not align with the spec's job list")
    held_col = cols.get("held")
    out = []
    for i, j in enumerate(base_jobs):
        start = cols["start"][i]
        if start is None:
            start = j.arrival
        elif isinstance(start, int):
            start = completions[start]
        pairs = cols["message_pairs"][i]
        pw = cols["pw_total"][i] / (j.size * (j.size - 1) / 2) if j.size > 1 else 0.0
        mh = float(cols["mh_total"][i]) / pairs if pairs else 0.0
        out.append(
            JobResult(
                job_id=j.job_id,
                arrival=j.arrival,
                start=start,
                completion=completions[i],
                size=j.size,
                quota=j.quota,
                pairwise_hops=pw,
                message_hops=mh,
                n_components=cols["n_components"][i],
                message_pairs=pairs,
                held=held_col[i] if held_col is not None else j.size,
                # Tenancy is fully determined by the spec's built jobs, so
                # packed artifacts never store it (no new columns; legacy
                # bytes unchanged).
                user_id=j.user_id,
                priority_class=j.priority_class,
            )
        )
    return out


@dataclass
class VacuumReport:
    """What :meth:`ResultCache.vacuum` removed."""

    corrupt_artifacts: int = 0
    tmp_files: int = 0
    orphan_traces: int = 0

    @property
    def total(self) -> int:
        """Files removed."""
        return self.corrupt_artifacts + self.tmp_files + self.orphan_traces


class ResultCache:
    """Spec-keyed artifact store with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).  ``None`` uses
        :func:`default_cache_root`.  The workload store lives in the
        ``traces/`` subdirectory and is exposed as :attr:`traces`.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.traces = TraceStore(self.root / TRACE_STORE_DIRNAME)
        self.hits = 0
        self.misses = 0
        # artifact path -> (file signature, decoded result); filled by
        # hits only, evicted least recently used.
        self._decoded: OrderedDict[Path, tuple[tuple[int, int, int], CellResult]] = (
            OrderedDict()
        )

    # -- key/path ------------------------------------------------------
    def path_for(self, spec: ExperimentSpec) -> Path:
        """Artifact path ``put`` would write for ``spec``."""
        return self._key_path(cell_digest(spec))

    def _key_path(self, key: str) -> Path:
        return self.root / f"{key}.json.gz"

    def artifact_exists(self, key: str) -> bool:
        """Whether an artifact file for cache key ``key`` exists (no decode)."""
        return _file_signature(self._key_path(key)) is not None

    # -- read ----------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> CellResult | None:
        """Cached result for ``spec``, or ``None`` (counted as a miss).

        A file decoded before is served from this instance's memo as long
        as its ``(mtime_ns, size, inode)`` signature is unchanged; every
        call returns its own :class:`CellResult` and ``jobs`` list.
        """
        result = self._get_path(self.path_for(spec), spec)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def _get_path(self, path: Path, spec: ExperimentSpec) -> CellResult | None:
        """Validated result stored at ``path``, through the decode memo."""
        signature = _file_signature(path)
        if signature is None:
            return None
        entry = self._decoded.get(path)
        if entry is not None and entry[0] == signature:
            self._decoded.move_to_end(path)
            result = entry[1]
            if result.spec != spec:
                return None
            if not self._hydratable(spec):  # as a fresh decode would find
                return None
        else:
            result = self._load(path, expect=spec)
            if result is None:
                return None
            self._decoded[path] = (signature, result)
            self._decoded.move_to_end(path)
            while len(self._decoded) > DECODED_MEMO_CAP:
                self._decoded.popitem(last=False)
        return replace(result, jobs=list(result.jobs))

    def peek(self, spec: ExperimentSpec) -> CellResult | None:
        """Cached result for ``spec`` without per-job rows or accounting.

        Cheap summary-level read for listings and campaign reports: no
        hit/miss counters are touched and ``jobs`` comes back empty.
        """
        return self._load(self.path_for(spec), expect=spec, load_jobs=False)

    def _read_payload(self, path: Path) -> dict | None:
        """Raw artifact dict, or ``None`` for missing/corrupt files."""
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, EOFError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
            return None
        return data

    def _hydratable(self, spec: ExperimentSpec) -> bool:
        """Whether :attr:`traces` holds what ``spec``'s jobs are built from."""
        return spec.trace_ref is None or spec.trace_ref in self.traces

    def _decode(self, data: dict, load_jobs: bool = True) -> CellResult | None:
        """Artifact dict -> CellResult (``None`` when undecodable, a ref
        cell whose trace left the store among them)."""
        try:
            spec = ExperimentSpec.from_dict(data["spec"])
            if not self._hydratable(spec):
                return None
            summary = summary_from_dict(data["summary"])
            if not load_jobs:
                jobs: list[JobResult] = []
            elif "jobs_packed" in data:
                base = spec.build_jobs(self.traces)
                jobs = unpack_job_results(data["jobs_packed"], base)
            else:
                jobs = [_job_from_list(v) for v in data["jobs"]]
        except (KeyError, TypeError, ValueError):
            return None
        return CellResult(
            spec=spec,
            summary=summary,
            jobs=jobs,
            cached=True,
        )

    def _filed(self, path: Path) -> CellResult | None:
        """The summary-level artifact at ``path``, or ``None`` when it is
        dead weight: undecodable, or misfiled -- not named by the
        :func:`~repro.runner.spec.cell_digest` of the spec it embeds, so
        no lookup can ever reach it."""
        data = self._read_payload(path)
        result = None if data is None else self._decode(data, load_jobs=False)
        if result is None or path != self.path_for(result.spec):
            return None
        return result

    def _load(
        self,
        path: Path,
        expect: ExperimentSpec | None = None,
        load_jobs: bool = True,
    ) -> CellResult | None:
        data = self._read_payload(path)
        if data is None:
            return None
        result = self._decode(data, load_jobs=load_jobs)
        if result is None:
            return None
        if expect is not None and result.spec != expect:
            return None
        return result

    # -- write ---------------------------------------------------------
    def put(self, result: CellResult) -> Path:
        """Persist ``result``; returns the artifact path.

        The artifact references the cell's trace by digest (the rows must
        be in :attr:`traces`) and packs per-job rows whenever
        the packed form decodes back bit-identically; otherwise it falls
        back to full rows.  The bytes written are a pure function of the
        cell's content and the zlib build: the gzip stream carries
        ``mtime=0`` and no filename, and volatile run accounting
        (``elapsed``) stays out of the payload, so every execution tier
        -- and every run in the same environment -- produces the
        identical file for the same spec.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        spec = result.spec
        payload = {
            "format": CACHE_FORMAT,
            "spec": spec.to_dict(),
            "summary": summary_to_dict(result.summary),
        }
        packed = pack_job_results(result.jobs)
        if packed is not None:
            try:
                lossless = (
                    unpack_job_results(packed, spec.build_jobs(self.traces))
                    == result.jobs
                )
            except (KeyError, TypeError, ValueError):
                lossless = False
            if not lossless:
                packed = None
        if packed is not None:
            payload["jobs_packed"] = packed
        else:
            payload["jobs"] = [_job_to_list(j) for j in result.jobs]
        path = self.path_for(spec)
        self._decoded.pop(path, None)
        tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
        with open(tmp, "wb") as raw:
            # filename="" and mtime=0 keep the gzip header content-pure.
            with gzip.GzipFile(
                filename="", fileobj=raw, mode="wb", compresslevel=9, mtime=0
            ) as fh:
                fh.write(json.dumps(payload).encode("utf-8"))
        os.replace(tmp, path)
        return path

    # -- maintenance / bulk access -------------------------------------
    def __len__(self) -> int:
        """Number of artifacts currently on disk."""
        return sum(1 for _ in self._artifact_paths())

    def _artifact_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        # *.json too: vacuum deletes pre-format-2 leftovers as unreadable.
        yield from sorted(
            list(self.root.glob("*.json")) + list(self.root.glob("*.json.gz"))
        )

    def iter_entries(self, load_jobs: bool = True) -> Iterator[tuple[Path, CellResult]]:
        """Every readable ``(path, artifact)`` pair in the cache.

        ``load_jobs=False`` skips per-job reconstruction (cheap header
        scan for listings and summary analyses); unreadable files are
        skipped either way.
        """
        for path in self._artifact_paths():
            data = self._read_payload(path)
            if data is None:
                continue
            result = self._decode(data, load_jobs=load_jobs)
            if result is not None:
                yield path, result

    def clear(self) -> int:
        """Delete all artifacts; returns how many were removed."""
        removed = 0
        for path in list(self._artifact_paths()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def _spec_matches(self, path: Path, substr: str) -> bool:
        """Whether an artifact's canonical spec JSON contains ``substr``.

        Matches against ``json.dumps(spec, sort_keys=True)`` compact form,
        so e.g. ``n-body``, ``"allocator":"mc"`` or ``8,8,8`` all work as
        filters; unreadable artifacts never match (``vacuum`` owns those).
        """
        data = self._read_payload(path)
        if data is None or not isinstance(data.get("spec"), dict):
            return False
        canonical = json.dumps(data["spec"], sort_keys=True, separators=(",", ":"))
        return substr in canonical

    def prune(
        self,
        older_than_days: float | None = None,
        dry_run: bool = False,
        spec_substr: str | None = None,
        keys: "set[str] | frozenset[str] | None" = None,
    ) -> list[Path]:
        """Remove artifacts by age, spec content, and/or cache key.

        ``older_than_days`` keeps artifacts written within the window;
        ``spec_substr`` restricts removal to artifacts whose canonical
        spec JSON contains the substring (see :meth:`_spec_matches`);
        ``keys`` restricts removal to artifacts whose cache key (the
        filename before its suffixes) is in the given set -- this is how
        ``python -m repro.campaign prune`` retires exactly one
        campaign's cells.  Criteria combine with AND; at least one is
        required.  Deletes unless ``dry_run``; returns the affected
        paths.  Follow with :meth:`vacuum` to drop traces no artifact
        references any more.
        """
        if older_than_days is None and spec_substr is None and keys is None:
            raise ValueError("prune needs older_than_days, spec_substr and/or keys")
        cutoff = (
            None if older_than_days is None else time.time() - older_than_days * 86400.0
        )
        stale = []
        for path in list(self._artifact_paths()):
            try:
                if cutoff is not None and path.stat().st_mtime >= cutoff:
                    continue
            except OSError:
                continue
            if keys is not None and path.name.partition(".")[0] not in keys:
                continue
            if spec_substr is not None and not self._spec_matches(path, spec_substr):
                continue
            stale.append(path)
        if not dry_run:
            for path in stale:
                path.unlink(missing_ok=True)
        return stale

    def prune_to_size(
        self, max_bytes: int, dry_run: bool = False
    ) -> tuple[list[Path], int]:
        """Evict oldest artifacts until the cache fits ``max_bytes``.

        Size-capped eviction over the cell artifacts (the workload store
        is not counted -- run :meth:`vacuum` afterwards to reclaim traces
        the evicted artifacts were the last to reference).  Returns the
        evicted paths (oldest first) and the artifact bytes remaining.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()  # oldest first
        total = sum(size for _, _, size in entries)
        evicted = []
        for mtime, path, size in entries:
            if total <= max_bytes:
                break
            evicted.append(path)
            total -= size
            if not dry_run:
                path.unlink(missing_ok=True)
        return evicted, total

    def vacuum(
        self,
        dry_run: bool = False,
        orphan_grace_days: float = 1.0,
    ) -> VacuumReport:
        """Remove dead weight: corrupt artifacts, temp leftovers, orphan traces.

        An artifact is corrupt when its payload cannot be decoded (bad
        JSON/format, unparseable spec, or a trace ref missing from the
        workload store) or when it is misfiled: its file stem is not the
        :func:`~repro.runner.spec.cell_digest` of the spec it embeds, so
        no lookup can ever reach it (a ref cell's artifact written when
        ref keys hashed the trace rows is one).  A trace is orphaned
        when no remaining readable artifact references it *and* it is
        older than ``orphan_grace_days``.  The grace window protects
        traces interned ahead of their artifacts -- a staged ingest, or a
        sweep still in flight whose cells haven't landed yet.
        """
        report = VacuumReport()
        referenced: set[str] = set()
        for path in list(self._artifact_paths()):
            result = self._filed(path)
            if result is None:
                report.corrupt_artifacts += 1
                if not dry_run:
                    path.unlink(missing_ok=True)
                continue
            if result.spec.trace_ref is not None:
                referenced.add(result.spec.trace_ref)
        if self.root.is_dir():
            for tmp in list(self.root.glob("*.tmp*")) + list(
                self.traces.root.glob("*.tmp*") if self.traces.root.is_dir() else []
            ):
                report.tmp_files += 1
                if not dry_run:
                    tmp.unlink(missing_ok=True)
        cutoff = time.time() - orphan_grace_days * 86400.0
        for digest in list(self.traces.digests()):
            if digest in referenced:
                continue
            try:
                if self.traces.path_for(digest).stat().st_mtime > cutoff:
                    continue
            except OSError:
                continue
            report.orphan_traces += 1
            if not dry_run:
                self.traces.remove(digest)
        return report

    def stats_line(self) -> str:
        """One-line accounting summary (printed by the CLI)."""
        return f"[cache] hits={self.hits} misses={self.misses} dir={self.root}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
