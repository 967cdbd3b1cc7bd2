"""Tests for the cache lifecycle CLI (python -m repro.runner)."""

import os
import time

import pytest

from repro.runner import ExperimentSpec, ResultCache, run_cell, run_many
from repro.runner.__main__ import main


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        mesh_shape=(8, 8),
        pattern="ring",
        allocator="hilbert+bf",
        load=1.0,
        seed=5,
        n_jobs=12,
        runtime_scale=0.01,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


TRACE = ((0, 0.0, 4, 30.0), (1, 5.0, 8, 12.5), (2, 9.0, 2, 40.0))


@pytest.fixture
def warm_cache(tmp_path):
    """A cache with two synthetic cells and one interned-trace cell."""
    cache = ResultCache(tmp_path / "cache")
    run_many(
        [_spec(), _spec(allocator="mc"), _spec(pattern="all-to-all", trace=TRACE, n_jobs=0)],
        cache=cache,
    )
    return cache


class TestLs:
    def test_lists_artifacts_and_store(self, warm_cache, capsys):
        assert main(["--cache-dir", str(warm_cache.root), "ls"]) == 0
        out = capsys.readouterr().out
        assert "3 artifacts" in out
        assert "workload store: 1 traces" in out
        assert "ring" in out and "all-to-all" in out
        assert "synthetic" in out  # synthetic cells marked as such

    def test_filters(self, warm_cache, capsys):
        assert main(["--cache-dir", str(warm_cache.root), "ls", "--pattern", "ring"]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out
        assert "all-to-all" not in out

    def test_empty_cache(self, tmp_path, capsys):
        assert main(["--cache-dir", str(tmp_path / "none"), "ls"]) == 0
        assert "0 artifacts" in capsys.readouterr().out


class TestPrune:
    def test_prunes_only_old_artifacts(self, warm_cache, capsys):
        paths = list(warm_cache._artifact_paths())
        old = paths[0]
        stale_time = time.time() - 10 * 86400
        os.utime(old, (stale_time, stale_time))
        assert main(["--cache-dir", str(warm_cache.root), "prune", "--older-than", "7"]) == 0
        assert "removed 1 artifacts" in capsys.readouterr().out
        assert not old.exists()
        assert len(warm_cache) == 2

    def test_dry_run_removes_nothing(self, warm_cache, capsys):
        for p in warm_cache._artifact_paths():
            stale = time.time() - 10 * 86400
            os.utime(p, (stale, stale))
        assert main(
            ["--cache-dir", str(warm_cache.root), "prune", "--older-than", "7", "--dry-run"]
        ) == 0
        assert "would remove 3 artifacts" in capsys.readouterr().out
        assert len(warm_cache) == 3


class TestPruneSpecSubstr:
    def test_removes_only_matching_specs(self, warm_cache, capsys):
        assert main(
            ["--cache-dir", str(warm_cache.root), "prune", "--spec-substr", "all-to-all"]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 artifacts with spec matching 'all-to-all'" in out
        assert len(warm_cache) == 2
        remaining = {c.spec.pattern for _, c in warm_cache.iter_entries()}
        assert remaining == {"ring"}

    def test_combines_with_age_cutoff(self, warm_cache, capsys):
        stale = time.time() - 10 * 86400
        for p in warm_cache._artifact_paths():
            os.utime(p, (stale, stale))
        assert main(
            [
                "--cache-dir", str(warm_cache.root), "prune",
                "--older-than", "7", "--spec-substr", '"allocator":"mc"',
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "older than 7 days and with spec matching" in out
        assert len(warm_cache) == 2
        assert all(c.spec.allocator != "mc" for _, c in warm_cache.iter_entries())

    def test_no_criteria_is_an_error(self, warm_cache, capsys):
        assert main(["--cache-dir", str(warm_cache.root), "prune"]) == 2
        assert "at least one of" in capsys.readouterr().err
        assert len(warm_cache) == 3


class TestPruneMaxMb:
    def test_evicts_oldest_first_until_under_cap(self, warm_cache, capsys):
        paths = list(warm_cache._artifact_paths())
        sizes = {p: p.stat().st_size for p in paths}
        # age the artifacts distinctly: paths[0] oldest, paths[2] newest
        now = time.time()
        for i, p in enumerate(paths):
            os.utime(p, (now - (3 - i) * 3600, now - (3 - i) * 3600))
        keep = sizes[paths[1]] + sizes[paths[2]]
        cap_mb = (keep + 1) / (1024.0 * 1024.0)
        assert main(
            ["--cache-dir", str(warm_cache.root), "prune", "--max-mb", f"{cap_mb:.9f}"]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 oldest artifacts" in out
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()

    def test_dry_run_keeps_everything(self, warm_cache, capsys):
        assert main(
            ["--cache-dir", str(warm_cache.root), "prune", "--max-mb", "0", "--dry-run"]
        ) == 0
        assert "would remove 3 oldest artifacts" in capsys.readouterr().out
        assert len(warm_cache) == 3

    def test_cannot_combine_with_other_criteria(self, warm_cache, capsys):
        assert main(
            [
                "--cache-dir", str(warm_cache.root), "prune",
                "--max-mb", "1", "--older-than", "7",
            ]
        ) == 2
        assert "cannot combine" in capsys.readouterr().err


class TestVacuum:
    def test_removes_corrupt_and_tmp_and_orphans(self, warm_cache, capsys):
        root = warm_cache.root
        # corrupt artifact
        bad = root / ("f" * 64 + ".json.gz")
        bad.write_text("{ not an artifact")
        # temp leftover
        (root / "deadbeef.json.gz.tmp123").write_text("partial")
        # orphan trace: interned but referenced by no artifact, past grace
        orphan = warm_cache.traces.put(((9, 0.0, 2, 5.0),))
        stale = time.time() - 3 * 86400
        os.utime(warm_cache.traces.path_for(orphan), (stale, stale))
        assert main(["--cache-dir", str(root), "vacuum"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 corrupt artifacts, 1 temp leftovers, 1 orphan traces" in out
        assert not bad.exists()
        assert len(warm_cache.traces) == 1  # the referenced trace survives

    def test_fresh_orphan_traces_survive_grace_window(self, warm_cache, capsys):
        """A trace staged ahead of its artifacts (ingest_swf, or a sweep
        still in flight) must not be vacuumed away."""
        fresh = warm_cache.traces.put(((9, 0.0, 2, 5.0),))
        assert main(["--cache-dir", str(warm_cache.root), "vacuum"]) == 0
        assert "0 orphan traces" in capsys.readouterr().out
        assert fresh in warm_cache.traces
        # an explicit zero grace reclaims it
        assert main(
            ["--cache-dir", str(warm_cache.root), "vacuum", "--orphan-grace", "0"]
        ) == 0
        assert "1 orphan traces" in capsys.readouterr().out
        assert fresh not in warm_cache.traces

    def test_artifact_with_missing_trace_is_corrupt(self, warm_cache, capsys):
        # delete the referenced trace out from under its artifact
        from repro.trace import store as store_mod

        digest = next(
            c.spec.trace_ref for _, c in warm_cache.iter_entries() if c.spec.trace_ref
        )
        warm_cache.traces.remove(digest)
        store_mod._MEMO.clear()
        assert main(["--cache-dir", str(warm_cache.root), "vacuum"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 corrupt artifacts" in out
        assert len(warm_cache) == 2

    def test_vacuum_dry_run(self, warm_cache, capsys):
        (warm_cache.root / "junk.json").write_text("nope")
        assert main(["--cache-dir", str(warm_cache.root), "vacuum", "--dry-run"]) == 0
        assert "would remove 1 corrupt artifacts" in capsys.readouterr().out
        assert (warm_cache.root / "junk.json").exists()


class TestRoundTripAfterMaintenance:
    def test_surviving_artifacts_still_hit(self, warm_cache):
        assert main(["--cache-dir", str(warm_cache.root), "vacuum"]) == 0
        fresh = ResultCache(warm_cache.root)
        hit = fresh.get(_spec())
        assert hit is not None
        assert hit.summary == run_cell(_spec()).summary


class TestPruneBadInputs:
    def test_negative_max_mb_is_a_clean_error(self, warm_cache, capsys):
        assert main(
            ["--cache-dir", str(warm_cache.root), "prune", "--max-mb", "-1"]
        ) == 2
        assert "--max-mb must be >= 0" in capsys.readouterr().err
        assert len(warm_cache) == 3
