"""Tests for the on-disk result cache."""

import gzip
import json

from repro.runner import ExperimentSpec, ResultCache, cell_digest, run_cell
from repro.runner.cache import CACHE_FORMAT, default_cache_root
from repro.runner.spec import summary_to_dict


def read_artifact(path) -> dict:
    """Decode one ``<key>.json.gz`` artifact file."""
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def write_artifact(path, data: dict) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(data, fh)


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        mesh_shape=(8, 8),
        pattern="ring",
        allocator="hilbert+bf",
        load=1.0,
        seed=5,
        n_jobs=15,
        runtime_scale=0.01,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        assert cache.get(spec) is None
        cell = run_cell(spec)
        path = cache.put(cell)
        assert path.is_file()
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert hit.summary == cell.summary
        assert hit.jobs == cell.jobs
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(run_cell(_spec()))
        assert cache.get(_spec(load=0.5)) is None
        assert cache.get(_spec(allocator="mc")) is None

    def test_corrupt_artifact_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        path = cache.put(run_cell(spec))
        path.write_text("{ not json")
        assert cache.get(spec) is None

    def test_format_version_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        path = cache.put(run_cell(spec))
        data = read_artifact(path)
        data["format"] = CACHE_FORMAT + 1
        write_artifact(path, data)
        assert cache.get(spec) is None

    def test_len_iter_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert len(cache) == 0
        assert list(cache.iter_entries()) == []
        specs = [_spec(), _spec(load=0.5), _spec(allocator="mc")]
        for spec in specs:
            cache.put(run_cell(spec))
        assert len(cache) == 3
        loaded = {cell.spec for _, cell in cache.iter_entries()}
        assert loaded == set(specs)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"
        assert ResultCache().root == tmp_path / "env-cache"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_root()) == ".repro-cache"

    def test_stats_line(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.get(_spec())
        assert "hits=0" in cache.stats_line()
        assert "misses=1" in cache.stats_line()


TRACE = tuple((i, 30.0 * i, 2 ** (i % 5), 20.0 + i) for i in range(40))


class TestCompactArtifacts:
    """Format-2 artifacts: ref specs, packed jobs, gzip -- all lossless."""

    def _trace_spec(self, cache: ResultCache) -> ExperimentSpec:
        return ExperimentSpec(
            mesh_shape=(8, 8),
            pattern="all-to-all",
            allocator="hilbert+bf",
            load=1.0,
            seed=5,
            trace_ref=cache.traces.put(TRACE),
        )

    def test_artifact_does_not_embed_trace_rows(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._trace_spec(cache)
        path = cache.put(run_cell(spec, store=cache.traces))
        data = read_artifact(path)
        assert data["format"] == CACHE_FORMAT
        assert data["spec"].get("trace") is None
        assert data["spec"]["trace_ref"] in cache.traces
        assert "jobs_packed" in data and "jobs" not in data

    def test_hit_is_bit_identical_to_computed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._trace_spec(cache)
        cell = run_cell(spec, store=cache.traces)
        cache.put(cell)
        hit = ResultCache(tmp_path / "c").get(spec)
        assert hit is not None
        assert hit.summary == cell.summary
        assert hit.jobs == cell.jobs  # exact float equality, field by field

    def test_synthetic_cells_also_pack(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(_spec())
        path = cache.put(cell)
        assert "jobs_packed" in read_artifact(path)
        hit = cache.get(_spec())
        assert hit.jobs == cell.jobs

    def test_unpackable_jobs_fall_back_to_full_rows(self, tmp_path):
        from repro.sched.job import JobResult

        cache = ResultCache(tmp_path / "c")
        cell = run_cell(_spec())
        # duplicate job ids cannot be packed (no unique trace row to rebuild from)
        cell.jobs = cell.jobs + [cell.jobs[0]]
        path = cache.put(cell)
        data = read_artifact(path)
        assert "jobs" in data and "jobs_packed" not in data
        hit = cache.get(_spec())
        assert hit.jobs == cell.jobs
        assert all(isinstance(j, JobResult) for j in hit.jobs)

    def test_inline_trace_artifact_is_a_miss(self, tmp_path):
        """Inline rows are not a spec form: a hand-made artifact whose
        spec carries them decodes as a miss, not as the ref cell."""
        cache = ResultCache(tmp_path / "c")
        spec = self._trace_spec(cache)
        path = cache.put(run_cell(spec, store=cache.traces))
        data = read_artifact(path)
        del data["spec"]["trace_ref"]
        data["spec"]["trace"] = [list(row) for row in TRACE]
        write_artifact(path, data)
        assert ResultCache(cache.root).get(spec) is None


class TestArtifactFormat:
    """Format 2 under ``<key>.json.gz`` is the one form the cache reads."""

    def test_cache_format_is_current(self):
        assert CACHE_FORMAT == 2

    def test_vacuum_leaves_current_artifact_untouched(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(run_cell(_spec()))
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        report = ResultCache(cache.root).vacuum()
        assert report.total == 0
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

    def test_timestamped_gzip_header_still_hits(self, tmp_path):
        """Only the payload is read: a format-2 artifact whose gzip header
        carries a timestamp and a filename serves a hit, and vacuum keeps
        it as it is."""
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(_spec())
        path = cache.put(cell)
        payload = gzip.decompress(path.read_bytes())
        with open(path, "wb") as raw:
            with gzip.GzipFile(
                filename="stamped.json", fileobj=raw, mode="wb", mtime=123456789
            ) as fh:
                fh.write(payload)
        stamped = path.read_bytes()
        hit = ResultCache(cache.root).get(_spec())
        assert hit is not None and hit.summary == cell.summary
        assert hit.jobs == cell.jobs
        assert ResultCache(cache.root).vacuum().corrupt_artifacts == 0
        assert path.read_bytes() == stamped

    def test_pre_format2_json_is_a_miss_and_vacuumed(self, tmp_path):
        """A pre-refactor ``<key>.json`` (plain JSON, inline spec, full
        job rows) is cold; vacuum counts it corrupt and deletes it."""
        from repro.runner.spec import _job_to_list

        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        cell = run_cell(spec)
        old = cache.root / f"{cell_digest(spec)}.json"
        cache.root.mkdir(parents=True)
        old.write_text(
            json.dumps(
                {
                    "format": 1,
                    "spec": spec.to_dict(),
                    "summary": summary_to_dict(cell.summary),
                    "jobs": [_job_to_list(j) for j in cell.jobs],
                    "elapsed": 0.5,
                }
            )
        )
        assert not cache.artifact_exists(cell_digest(spec))
        assert cache.get(spec) is None and cache.peek(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1 and list(cache.iter_entries()) == []
        report = cache.vacuum()
        assert report.corrupt_artifacts == 1
        assert not old.exists() and len(cache) == 0


class TestPeek:
    def test_peek_returns_summary_without_jobs_or_accounting(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(_spec())
        cache.put(cell)
        peeked = cache.peek(_spec())
        assert peeked is not None
        assert peeked.summary == cell.summary
        assert peeked.jobs == []
        assert (cache.hits, cache.misses) == (0, 0)

    def test_peek_miss_is_none(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.peek(_spec()) is None
        assert (cache.hits, cache.misses) == (0, 0)


class TestDeterministicArtifacts:
    def test_artifact_bytes_are_content_pure(self, tmp_path):
        """Same cell, two puts at different times -> identical bytes
        (fixed gzip header, no volatile payload fields)."""
        cell = run_cell(_spec())
        a = ResultCache(tmp_path / "a").put(cell)
        again = run_cell(_spec())
        b = ResultCache(tmp_path / "b").put(again)
        assert a.read_bytes() == b.read_bytes()

    def test_volatile_elapsed_stays_out_of_the_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(_spec())
        assert cell.elapsed > 0.0
        path = cache.put(cell)
        assert "elapsed" not in read_artifact(path)
        # legacy artifacts carrying one still surface it on load
        hit = cache.get(_spec())
        assert hit.elapsed == 0.0


class TestPruneFilters:
    def _warm(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path / "c")
        for spec in (_spec(), _spec(pattern="all-to-all"), _spec(allocator="mc")):
            cache.put(run_cell(spec))
        return cache

    def test_spec_substr_alone(self, tmp_path):
        cache = self._warm(tmp_path)
        removed = cache.prune(spec_substr='"pattern":"all-to-all"')
        assert len(removed) == 1
        assert {c.spec.pattern for _, c in cache.iter_entries()} == {"ring"}

    def test_requires_some_criterion(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="prune needs"):
            self._warm(tmp_path).prune()

    def test_keys_alone(self, tmp_path):
        """The campaign-prune criterion: remove exactly the named keys."""
        cache = self._warm(tmp_path)
        keys = {cell_digest(_spec()), cell_digest(_spec(allocator="mc"))}
        removed = cache.prune(keys=keys)
        assert len(removed) == 2
        assert {p.name.partition(".")[0] for p in removed} == keys
        assert {c.spec.pattern for _, c in cache.iter_entries()} == {"all-to-all"}

    def test_keys_combine_with_spec_substr(self, tmp_path):
        cache = self._warm(tmp_path)
        keys = {cell_digest(_spec()), cell_digest(_spec(allocator="mc"))}
        removed = cache.prune(keys=keys, spec_substr='"allocator":"mc"')
        assert len(removed) == 1
        assert len(cache) == 2

    def test_keys_dry_run(self, tmp_path):
        cache = self._warm(tmp_path)
        removed = cache.prune(keys={cell_digest(_spec())}, dry_run=True)
        assert len(removed) == 1 and len(cache) == 3

    def test_prune_to_size_oldest_first(self, tmp_path):
        import os
        import time

        cache = self._warm(tmp_path)
        paths = list(cache._artifact_paths())
        now = time.time()
        for i, p in enumerate(paths):
            os.utime(p, (now - (3 - i) * 3600, now - (3 - i) * 3600))
        total = sum(p.stat().st_size for p in paths)
        cap = total - 1  # forces exactly the oldest out
        evicted, remaining = cache.prune_to_size(cap)
        assert evicted == [paths[0]]
        assert remaining <= cap
        assert len(cache) == 2

    def test_prune_to_size_zero_clears_all(self, tmp_path):
        cache = self._warm(tmp_path)
        evicted, remaining = cache.prune_to_size(0)
        assert len(evicted) == 3 and remaining == 0
        assert len(cache) == 0

    def test_prune_to_size_dry_run(self, tmp_path):
        cache = self._warm(tmp_path)
        evicted, _ = cache.prune_to_size(0, dry_run=True)
        assert len(evicted) == 3
        assert len(cache) == 3
