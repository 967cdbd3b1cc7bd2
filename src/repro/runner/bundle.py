"""Content-addressed result bundles: move a warm cache between machines.

A *bundle* is one gzip-compressed tar holding a selection of cell
artifacts, every trace those artifacts reference, and (for campaign
exports) the campaign manifest -- the complete state another machine
needs to serve the same cells warm.  ``python -m repro.runner export``
writes one; ``import`` unpacks it into any cache root with every member
verified against the digests recorded in the bundle's own manifest and
already-present content skipped, so imports are idempotent and a
tampered bundle is rejected rather than silently poisoning the cache.

The bundle bytes are deterministic in their content: members are added
in sorted-name order with zeroed tar metadata (mtime, uid/gid, uname),
and the outer gzip stream carries no timestamp or filename -- exporting
the same cache state twice produces the identical file, so bundles
themselves are content-addressable.

This is the cross-machine half of the cooperative drain story
(:mod:`repro.campaign.lease`): runners that cannot share a filesystem
drain disjoint campaigns (or disjoint ``--limit`` windows) and exchange
bundles; importing is a merge, never an overwrite.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
import tarfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec, cell_digest

__all__ = [
    "BUNDLE_FORMAT",
    "BundleError",
    "ExportReport",
    "ImportReport",
    "export_bundle",
    "import_bundle",
    "read_bundle_manifest",
]

#: Bundle schema version.
BUNDLE_FORMAT = 1

#: Name of the bundle's own manifest member (always the first entry).
BUNDLE_MANIFEST = "MANIFEST.json"

_HEX64 = re.compile(r"[0-9a-f]{64}")


class BundleError(ValueError):
    """A bundle failed structural or digest verification."""


@dataclass
class ExportReport:
    """What :func:`export_bundle` packed."""

    path: Path
    n_artifacts: int = 0
    n_traces: int = 0
    n_manifests: int = 0
    size_bytes: int = 0

    def summary_line(self) -> str:
        return (
            f"exported {self.n_artifacts} artifacts, {self.n_traces} traces, "
            f"{self.n_manifests} campaign manifests "
            f"({self.size_bytes / 1024.0:.0f} kB) to {self.path}"
        )


@dataclass
class ImportReport:
    """What :func:`import_bundle` unpacked (and what it skipped)."""

    path: Path
    artifacts_added: int = 0
    artifacts_skipped: int = 0
    traces_added: int = 0
    traces_skipped: int = 0
    manifests_merged: int = 0
    #: Per-member digest verifications performed (every member, always).
    verified: int = 0

    def summary_line(self) -> str:
        return (
            f"imported {self.artifacts_added} artifacts "
            f"(+{self.artifacts_skipped} already present), "
            f"{self.traces_added} traces (+{self.traces_skipped} present), "
            f"merged {self.manifests_merged} campaign manifests; "
            f"{self.verified} digests verified"
        )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tar_member(name: str, data: bytes) -> tarfile.TarInfo:
    """A TarInfo with all volatile metadata zeroed (determinism)."""
    info = tarfile.TarInfo(name=name)
    info.size = len(data)
    info.mtime = 0
    info.uid = info.gid = 0
    info.uname = info.gname = ""
    info.mode = 0o644
    return info


def export_bundle(
    cache: ResultCache,
    out: str | Path,
    artifact_paths,
    campaign_manifests=(),
) -> ExportReport:
    """Pack artifacts (+ referenced traces + campaign manifests) into ``out``.

    ``artifact_paths`` are ``<key>.json.gz`` files inside ``cache``;
    the ones ``vacuum`` would remove -- unreadable (a pre-format-2
    ``<key>.json`` among them) or misfiled under a name other than their
    cell digest -- are skipped.  Every trace any packed
    artifact references is bundled from the cache's workload store.
    ``campaign_manifests`` are manifest file paths to include verbatim
    (imports *merge* them, so concurrent exporters cannot clobber each
    other's completions).  Returns an :class:`ExportReport`.
    """
    out = Path(out)
    members: dict[str, bytes] = {}
    index: dict = {
        "format": BUNDLE_FORMAT,
        "artifacts": {},
        "traces": {},
        "campaigns": {},
    }
    digests: set[str] = set()
    for path in sorted(Path(p) for p in artifact_paths):
        result = cache._filed(path)
        if result is None:
            continue
        raw = path.read_bytes()
        members[f"artifacts/{path.name}"] = raw
        index["artifacts"][path.name.partition(".")[0]] = {
            "file": path.name,
            "sha256": _sha256(raw),
        }
        if result.spec.trace_ref is not None:
            digests.add(result.spec.trace_ref)
    for digest in sorted(digests):
        trace_path = cache.traces.path_for(digest)
        try:
            raw = trace_path.read_bytes()
        except OSError:
            continue  # removed since the artifact was read
        members[f"traces/{trace_path.name}"] = raw
        index["traces"][digest] = {
            "file": trace_path.name,
            "sha256": _sha256(raw),
        }
    n_manifests = 0
    for path in sorted(Path(p) for p in campaign_manifests):
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        members[f"campaigns/{path.name}"] = raw
        index["campaigns"][path.name] = {"file": path.name, "sha256": _sha256(raw)}
        n_manifests += 1

    manifest_bytes = json.dumps(index, sort_keys=True, indent=1).encode()
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as raw_fh:
        with gzip.GzipFile(
            filename="", fileobj=raw_fh, mode="wb", compresslevel=9, mtime=0
        ) as gz:
            with tarfile.open(
                fileobj=gz, mode="w", format=tarfile.USTAR_FORMAT
            ) as tar:
                tar.addfile(
                    _tar_member(BUNDLE_MANIFEST, manifest_bytes),
                    io.BytesIO(manifest_bytes),
                )
                for name in sorted(members):
                    tar.addfile(
                        _tar_member(name, members[name]), io.BytesIO(members[name])
                    )
    return ExportReport(
        path=out,
        n_artifacts=len(index["artifacts"]),
        n_traces=len(index["traces"]),
        n_manifests=n_manifests,
        size_bytes=out.stat().st_size,
    )


def _read_members(path: Path) -> dict[str, bytes]:
    """Every ``name -> bytes`` in the bundle (fully read, no extraction).

    Members are read through :meth:`tarfile.TarFile.extractfile` only --
    nothing is ever extracted to disk by tar itself, so hostile member
    names cannot traverse paths: destinations are computed from the
    *verified manifest keys*, never from tar metadata.
    """
    members: dict[str, bytes] = {}
    try:
        with gzip.open(path, "rb") as gz:
            with tarfile.open(fileobj=gz, mode="r") as tar:
                for info in tar:
                    if not info.isfile():
                        continue
                    fh = tar.extractfile(info)
                    if fh is not None:
                        members[info.name] = fh.read()
    except (OSError, EOFError, tarfile.TarError) as exc:
        raise BundleError(f"unreadable bundle {path}: {exc}") from None
    return members


def read_bundle_manifest(path: str | Path) -> dict:
    """The bundle's decoded ``MANIFEST.json`` (validated shape)."""
    members = _read_members(Path(path))
    return _decode_manifest(members, Path(path))


def _decode_manifest(members: dict[str, bytes], path: Path) -> dict:
    raw = members.get(BUNDLE_MANIFEST)
    if raw is None:
        raise BundleError(f"{path} has no {BUNDLE_MANIFEST} member")
    try:
        index = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: corrupt {BUNDLE_MANIFEST}: {exc}") from None
    if not isinstance(index, dict) or index.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"{path}: not a format-{BUNDLE_FORMAT} bundle "
            f"(format={index.get('format') if isinstance(index, dict) else '?'})"
        )
    for section in ("artifacts", "traces", "campaigns"):
        if not isinstance(index.get(section, {}), dict):
            raise BundleError(f"{path}: malformed {section!r} section")
    return index


def _verified(members: dict, entry: dict, section: str, key: str, prefix: str) -> bytes:
    """The member bytes for one index entry, digest-checked."""
    name = f"{prefix}/{entry.get('file', '')}"
    raw = members.get(name)
    if raw is None:
        raise BundleError(f"bundle member {name} ({section} {key[:12]}) is missing")
    if _sha256(raw) != entry.get("sha256"):
        raise BundleError(
            f"digest mismatch for bundle member {name} ({section} {key[:12]}): "
            "bundle is corrupt or tampered with"
        )
    return raw


def _artifact_digest(raw: bytes) -> str | None:
    """Cell digest of the spec embedded in artifact bytes (``None`` when
    the bytes are no readable artifact)."""
    try:
        spec = ExperimentSpec.from_dict(json.loads(gzip.decompress(raw))["spec"])
    except (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError):
        return None
    return cell_digest(spec)


def import_bundle(cache: ResultCache, path: str | Path) -> ImportReport:
    """Unpack a bundle into ``cache`` with per-member digest verification.

    Every member's bytes are checked against the sha256 recorded in the
    bundle manifest *before* anything is written; any mismatch, an
    artifact that is not a ``<key>.json.gz`` file (an older bundle can
    carry ``<key>.json``), or one whose key is not the
    :func:`~repro.runner.spec.cell_digest` of the spec it embeds (it
    could never be looked up), raises :class:`BundleError` and the cache
    is left untouched.  Traces are additionally verified against their
    content address (the store re-derives the digest from the canonical
    rows).  Artifacts and traces already present are skipped -- content
    addressing makes the existing copy equivalent by construction -- and
    campaign manifests are *merged* through
    :meth:`CampaignManifest.merge`, so importing never erases local
    completions.
    """
    path = Path(path)
    members = _read_members(path)
    index = _decode_manifest(members, path)
    report = ImportReport(path=path)

    # Verify-everything-first: no partial import on a bad bundle.
    artifacts: list[tuple[str, bytes]] = []
    for key, entry in sorted(index["artifacts"].items()):
        if not _HEX64.fullmatch(str(key)):
            raise BundleError(f"malformed artifact key {key!r} in bundle manifest")
        if entry.get("file") != f"{key}.json.gz":
            raise BundleError(
                f"artifact {key[:12]} in bundle is {entry.get('file')!r}, not "
                "<key>.json.gz: only cache-format-2 artifacts can be imported"
            )
        raw = _verified(members, entry, "artifact", key, "artifacts")
        digest = _artifact_digest(raw)
        if digest is None:
            raise BundleError(f"artifact {key[:12]} in bundle is unreadable")
        if digest != key:
            raise BundleError(
                f"artifact {key[:12]} in bundle holds cell {digest[:12]}: "
                "filed under another key, no lookup could ever reach it"
            )
        artifacts.append((key, raw))
        report.verified += 1
    traces: list[tuple[str, bytes]] = []
    for digest, entry in sorted(index["traces"].items()):
        if not _HEX64.fullmatch(str(digest)):
            raise BundleError(f"malformed trace digest {digest!r} in bundle manifest")
        raw = _verified(members, entry, "trace", digest, "traces")
        traces.append((digest, raw))
        report.verified += 1
    manifests: list[dict] = []
    for key, entry in sorted(index["campaigns"].items()):
        raw = _verified(members, entry, "campaign manifest", str(key), "campaigns")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            raise BundleError(f"campaign manifest {key!r} in bundle is not JSON")
        if not isinstance(data, dict) or not data.get("campaign_digest"):
            raise BundleError(f"campaign manifest {key!r} in bundle is malformed")
        manifests.append(data)
        report.verified += 1

    # Content-address check for traces: the digest in the bundle must be
    # the digest the store would assign the decoded rows.
    from repro.trace.store import canonical_trace, trace_digest

    staged: list[tuple[str, tuple]] = []
    for digest, raw in traces:
        if digest in cache.traces:
            report.traces_skipped += 1
            continue
        try:
            rows = canonical_trace(json.loads(raw))
            actual = trace_digest(rows)
        except (json.JSONDecodeError, TypeError, ValueError, KeyError) as exc:
            raise BundleError(f"trace {digest[:12]} in bundle is invalid: {exc}")
        if actual != digest:
            raise BundleError(
                f"trace {digest[:12]} fails content-address verification "
                f"(rows hash to {actual[:12]})"
            )
        staged.append((digest, rows))

    # All checks passed -- now write.  Traces go through the store's own
    # put(), which re-serializes canonically: the on-disk bytes are then
    # guaranteed to hash to the digest, the invariant TraceStore.get
    # re-checks on every read.
    cache.root.mkdir(parents=True, exist_ok=True)
    for digest, rows in staged:
        cache.traces.put(rows)
        report.traces_added += 1
    for key, raw in artifacts:
        target = cache._key_path(key)
        if target.is_file():
            report.artifacts_skipped += 1
            continue
        tmp = target.parent / f"{target.name}.tmp-import"
        tmp.write_bytes(raw)
        tmp.replace(target)
        report.artifacts_added += 1
    for data in manifests:
        from repro.campaign.manifest import CampaignManifest, manifest_path

        name = str(data.get("name", "campaign"))
        digest = str(data["campaign_digest"])
        target = manifest_path(cache.root, name, digest)
        manifest = CampaignManifest.open(target, name, digest)
        manifest.merge(data)
        manifest.flush()
        report.manifests_merged += 1
    return report
