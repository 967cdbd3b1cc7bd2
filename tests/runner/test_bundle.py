"""Result bundle export/import: digest-verified warm-cache exchange.

The acceptance contract: an export/import round-trip reproduces a
100%-warm-hit campaign run on a fresh cache root with every artifact and
trace digest-verified; tampered bundles are rejected before anything is
written; importing twice is a no-op.
"""

import gzip
import hashlib
import io
import json
import tarfile

import pytest

from repro.campaign import loads_campaign, run_campaign
from repro.runner import ResultCache
from repro.runner.bundle import (
    BUNDLE_MANIFEST,
    BundleError,
    export_bundle,
    import_bundle,
    read_bundle_manifest,
)
from repro.trace import trace_digest

TRACE_ROWS = [[0, 0.0, 4, 10.0], [1, 1.0, 8, 5.0]]
TRACE_DIGEST = trace_digest(TRACE_ROWS)

CAMPAIGN = f"""
[campaign]
name = "bundled"

[defaults]
seed = 11
n_jobs = 8
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.7]
allocator = ["hilbert+bf", "s-curve"]
workload = [{{ kind = "ref", digest = "{TRACE_DIGEST}" }}]
"""

N_CELLS = 4


def _cache(tmp_path, sub) -> ResultCache:
    """A cache root with the shared workload trace pre-interned."""
    cache = ResultCache(tmp_path / sub)
    assert cache.traces.put(TRACE_ROWS) == TRACE_DIGEST
    return cache


def _populated(tmp_path, sub="a") -> ResultCache:
    cache = _cache(tmp_path, sub)
    run = run_campaign(loads_campaign(CAMPAIGN), cache=cache, jobs=1)
    assert run.misses == N_CELLS
    return cache


def _export(cache, tmp_path):
    manifests = sorted((cache.root / "campaigns").glob("*.json"))
    return export_bundle(
        cache,
        tmp_path / "bundle.tgz",
        cache._artifact_paths(),
        campaign_manifests=manifests,
    )


def _repack(path, members):
    """Rewrite a bundle from a name->bytes dict (tamper helper)."""
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb") as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for name, data in members.items():
                    info = tarfile.TarInfo(name=name)
                    info.size = len(data)
                    tar.addfile(info, io.BytesIO(data))


def _members(path):
    with gzip.open(path, "rb") as gz:
        with tarfile.open(fileobj=gz, mode="r") as tar:
            return {m.name: tar.extractfile(m).read() for m in tar if m.isfile()}


class TestRoundTrip:
    def test_import_into_fresh_root_serves_campaign_warm(self, tmp_path):
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        assert report.n_artifacts == N_CELLS
        assert report.n_traces == 1  # the shared workload trace
        assert report.n_manifests == 1

        fresh = ResultCache(tmp_path / "fresh")
        imported = import_bundle(fresh, report.path)
        assert imported.artifacts_added == N_CELLS
        assert imported.traces_added == 1
        assert imported.manifests_merged == 1
        assert imported.verified == N_CELLS + 1 + 1

        # byte-identical artifacts on the fresh root
        src_files = {p.name: p.read_bytes() for p in cache.root.glob("*.json.gz")}
        dst_files = {p.name: p.read_bytes() for p in fresh.root.glob("*.json.gz")}
        assert src_files == dst_files

        # and a 100%-warm run, manifest included
        warm = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(fresh.root), jobs=1
        )
        assert warm.hits == N_CELLS and warm.misses == 0
        counts = warm.manifest.counts([c.digest for c in warm.expansion.cells])
        assert counts["done"] == N_CELLS

    def test_import_twice_skips_everything(self, tmp_path):
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        fresh = ResultCache(tmp_path / "fresh")
        import_bundle(fresh, report.path)
        again = import_bundle(fresh, report.path)
        assert again.artifacts_added == 0 and again.traces_added == 0
        assert again.artifacts_skipped == N_CELLS and again.traces_skipped == 1
        # still digest-verifies every member even when skipping
        assert again.verified == N_CELLS + 1 + 1

    def test_export_is_deterministic(self, tmp_path):
        cache = _populated(tmp_path)
        a = _export(cache, tmp_path)
        b = export_bundle(
            cache,
            tmp_path / "again.tgz",
            cache._artifact_paths(),
            campaign_manifests=sorted((cache.root / "campaigns").glob("*.json")),
        )
        assert a.path.read_bytes() == b.path.read_bytes()

    def test_import_merges_manifest_instead_of_clobbering(self, tmp_path):
        """Two machines each compute half the campaign; importing one
        bundle into the other's cache must union the manifests."""
        left = _cache(tmp_path, "left")
        run_campaign(loads_campaign(CAMPAIGN), cache=left, limit=2, jobs=1)
        right = _cache(tmp_path, "right")
        run_campaign(loads_campaign(CAMPAIGN), cache=right, jobs=1)

        report = _export(left, tmp_path)
        import_bundle(right, report.path)
        merged = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(right.root), jobs=1
        )
        assert merged.hits == N_CELLS and merged.misses == 0


class TestVerification:
    def test_tampered_artifact_is_rejected_before_write(self, tmp_path):
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        members = _members(report.path)
        victim = next(n for n in members if n.startswith("artifacts/"))
        members[victim] = members[victim] + b"\x00"
        _repack(report.path, members)

        fresh = ResultCache(tmp_path / "fresh")
        with pytest.raises(BundleError, match="digest mismatch"):
            import_bundle(fresh, report.path)
        assert not list(fresh.root.glob("*.json.gz"))  # nothing written

    def test_trace_failing_content_address_is_rejected(self, tmp_path):
        """A trace whose sha256 entry was tampered *consistently* with
        its bytes still fails the content-address re-derivation."""
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        members = _members(report.path)
        victim = next(n for n in members if n.startswith("traces/"))
        forged = json.dumps([[0, 0.0, 2, 1.0]]).encode()
        members[victim] = forged
        index = json.loads(members[BUNDLE_MANIFEST])
        digest = victim.split("/")[1].removesuffix(".json")
        index["traces"][digest]["sha256"] = hashlib.sha256(forged).hexdigest()
        members[BUNDLE_MANIFEST] = json.dumps(index).encode()
        _repack(report.path, members)

        fresh = ResultCache(tmp_path / "fresh")
        with pytest.raises(BundleError, match="content-address"):
            import_bundle(fresh, report.path)

    def test_missing_member_and_bad_format_are_rejected(self, tmp_path):
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        members = _members(report.path)
        victim = next(n for n in members if n.startswith("artifacts/"))
        del members[victim]
        _repack(report.path, members)
        with pytest.raises(BundleError, match="missing"):
            import_bundle(ResultCache(tmp_path / "f1"), report.path)

        _repack(report.path, {BUNDLE_MANIFEST: json.dumps({"format": 99}).encode()})
        with pytest.raises(BundleError, match="format"):
            import_bundle(ResultCache(tmp_path / "f2"), report.path)

        not_tar = tmp_path / "not.tgz"
        not_tar.write_bytes(b"junk")
        with pytest.raises(BundleError, match="unreadable"):
            import_bundle(ResultCache(tmp_path / "f3"), not_tar)

    def test_renamed_artifact_is_rejected_before_write(self, tmp_path):
        """An artifact filed under a key that is not the cell digest of
        its own spec would import and then never hit; the import refuses
        it even when the index is self-consistent."""
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        members = _members(report.path)
        index = json.loads(members[BUNDLE_MANIFEST])
        key = sorted(index["artifacts"])[0]
        wrong = "0" * 64
        members[f"artifacts/{wrong}.json.gz"] = members.pop(f"artifacts/{key}.json.gz")
        index["artifacts"][wrong] = {**index["artifacts"].pop(key), "file": f"{wrong}.json.gz"}
        members[BUNDLE_MANIFEST] = json.dumps(index).encode()
        _repack(report.path, members)

        fresh = ResultCache(tmp_path / "fresh")
        with pytest.raises(BundleError, match="filed under another key"):
            import_bundle(fresh, report.path)
        assert not fresh.root.exists()  # nothing written, traces included

    def test_export_skips_misfiled_artifacts(self, tmp_path):
        cache = _populated(tmp_path)
        original = next(iter(cache._artifact_paths()))
        (cache.root / f"{'0' * 64}.json.gz").write_bytes(original.read_bytes())
        report = _export(cache, tmp_path)
        assert report.n_artifacts == N_CELLS
        assert "0" * 64 not in read_bundle_manifest(report.path)["artifacts"]

    def test_read_bundle_manifest(self, tmp_path):
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        index = read_bundle_manifest(report.path)
        assert len(index["artifacts"]) == N_CELLS
        assert all(len(k) == 64 for k in index["artifacts"])

    def test_pre_format2_artifact_is_rejected_before_write(self, tmp_path):
        """An older bundle can carry a plain ``<key>.json`` artifact; the
        cache would never read it, so the import refuses the bundle."""
        cache = _populated(tmp_path)
        report = _export(cache, tmp_path)
        members = _members(report.path)
        index = json.loads(members[BUNDLE_MANIFEST])
        key = sorted(index["artifacts"])[0]
        raw = gzip.decompress(members.pop(f"artifacts/{key}.json.gz"))
        members[f"artifacts/{key}.json"] = raw
        index["artifacts"][key]["file"] = f"{key}.json"
        index["artifacts"][key]["sha256"] = hashlib.sha256(raw).hexdigest()
        members[BUNDLE_MANIFEST] = json.dumps(index).encode()
        _repack(report.path, members)

        fresh = ResultCache(tmp_path / "fresh")
        with pytest.raises(BundleError, match="json.gz"):
            import_bundle(fresh, report.path)
        assert not fresh.root.exists()  # nothing written, traces included
