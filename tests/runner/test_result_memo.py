"""The read-side memos: decoded results per cache, hydrated jobs per process.

``ResultCache.get`` serves a file it decoded before from memory while
the file's ``(mtime_ns, size, inode)`` is unchanged, and
``ExperimentSpec.build_jobs`` keeps built job lists per workload.  Both
must be invisible: same hits and misses, same results, fresh objects.
"""

import dataclasses
import gzip

import pytest

from repro.campaign import bundled_campaign_path, expand, load_campaign
from repro.runner import ExperimentSpec, ResultCache, cell_digest, run_cell, run_many
from repro.runner import spec as spec_module
from repro.trace.store import TraceStore

SPEC = ExperimentSpec(
    mesh_shape=(8, 8),
    pattern="ring",
    allocator="hilbert+bf",
    load=1.0,
    seed=5,
    n_jobs=15,
    runtime_scale=0.01,
)


@pytest.fixture
def reads(monkeypatch):
    """Counts artifact file reads made by any ResultCache."""
    calls = []
    original = ResultCache._read_payload

    def counting(self, path):
        calls.append(path)
        return original(self, path)

    monkeypatch.setattr(ResultCache, "_read_payload", counting)
    return calls


class TestDecodedMemo:
    def test_second_get_is_served_without_reading_and_counts_a_hit(
        self, tmp_path, reads
    ):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(SPEC)
        cache.put(cell)
        first = cache.get(SPEC)
        assert len(reads) == 1
        second = cache.get(SPEC)
        assert len(reads) == 1
        assert (cache.hits, cache.misses) == (2, 0)
        assert second.summary == first.summary == cell.summary
        assert second.jobs == first.jobs == cell.jobs
        assert second is not first and second.jobs is not first.jobs

    def test_memo_is_per_instance(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        cache.put(run_cell(SPEC))
        cache.get(SPEC)
        ResultCache(cache.root).get(SPEC)
        assert len(reads) == 2

    def test_rewrite_by_put_is_decoded_again(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(SPEC)
        cache.put(cell)
        cache.get(SPEC)
        changed = dataclasses.replace(
            cell,
            summary=dataclasses.replace(
                cell.summary, makespan=cell.summary.makespan + 1.0
            ),
        )
        cache.put(changed)
        again = cache.get(SPEC)
        assert len(reads) == 2
        assert again.summary == changed.summary

    def test_rewrite_outside_put_is_decoded_again(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(run_cell(SPEC))
        cache.get(SPEC)
        # the same payload under a timestamped gzip header: new bytes,
        # new inode, same cell
        payload = gzip.decompress(path.read_bytes())
        tmp = path.with_name(path.name + ".rewrite")
        with open(tmp, "wb") as raw:
            with gzip.GzipFile(
                filename="stamped.json", fileobj=raw, mode="wb", mtime=123456789
            ) as fh:
                fh.write(payload)
        tmp.replace(path)
        before = len(reads)
        assert cache.get(SPEC) is not None
        assert len(reads) == before + 1
        assert (cache.hits, cache.misses) == (2, 0)

    def test_pruned_artifact_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(run_cell(SPEC))
        assert cache.get(SPEC) is not None
        assert cache.prune(keys={cell_digest(SPEC)})
        assert cache.get(SPEC) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_mutating_returned_jobs_does_not_leak(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cell = run_cell(SPEC)
        cache.put(cell)
        first = cache.get(SPEC)
        first.jobs.clear()
        second = cache.get(SPEC)
        assert second.jobs == cell.jobs
        second.jobs.pop()
        assert cache.get(SPEC).jobs == cell.jobs

    def test_misses_and_puts_do_not_fill_the_memo(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        assert cache.get(SPEC) is None
        cache.put(run_cell(SPEC))
        cache.get(SPEC)
        assert len(reads) == 1  # the hit after put decoded from disk

    def test_artifact_exists_needs_no_decode(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        key = cell_digest(SPEC)
        assert not cache.artifact_exists(key)
        cache.put(run_cell(SPEC))
        assert cache.artifact_exists(key)
        assert reads == []


class TestRefCells:
    """A ref cell's key is its cell digest, so serving it warm reads no
    trace rows, and a trace that left the store still means a miss."""

    @staticmethod
    def _ref_cache(tmp_path):
        cache = ResultCache(tmp_path / "c")
        ref = dataclasses.replace(
            SPEC,
            n_jobs=0,
            trace_ref=cache.traces.put(((0, 0.0, 4, 10.0), (1, 1.0, 8, 5.0))),
        )
        cache.put(run_cell(ref, store=cache.traces))
        return cache, ref

    def test_memoised_get_reads_no_trace(self, tmp_path, monkeypatch):
        cache, ref = self._ref_cache(tmp_path)
        assert cache.get(ref) is not None  # decoded once, now memoised
        calls = []
        original = TraceStore.get

        def counting(self, digest):
            calls.append(digest)
            return original(self, digest)

        monkeypatch.setattr(TraceStore, "get", counting)
        for _ in range(3):
            assert cache.get(ref) is not None
        assert calls == []

    def test_trace_gone_is_a_miss(self, tmp_path):
        cache, ref = self._ref_cache(tmp_path)
        assert cache.get(ref) is not None  # memoised
        cache.traces.remove(ref.trace_ref)
        assert cache.get(ref) is None
        assert ResultCache(cache.root).get(ref) is None
        assert cache.peek(ref) is None

    def test_computing_a_cell_whose_trace_left_raises(self, tmp_path):
        cache, ref = self._ref_cache(tmp_path)
        cache.traces.remove(ref.trace_ref)
        with pytest.raises(KeyError, match="not in store"):
            run_many([ref], cache=cache)


@pytest.fixture
def fairness_cells(tmp_path):
    store = TraceStore(tmp_path / "traces")
    campaign = load_campaign(bundled_campaign_path("fairness"))
    return store, expand(campaign, store=store).cells


class TestJobsMemo:
    def test_memoised_jobs_equal_fresh_hydration_over_fairness(self, fairness_cells):
        store, cells = fairness_cells
        assert len(cells) == 96
        spec_module._JOBS_MEMO.clear()
        for cell in cells:
            first = cell.spec.build_jobs(store)
            second = cell.spec.build_jobs(store)
            fresh = cell.spec._build_jobs(store)
            assert first == second == fresh
            assert first is not second
        # the 96 cells share far fewer workloads than they have cells
        assert len(spec_module._JOBS_MEMO) < len(cells)

    def test_returned_list_is_fresh(self):
        jobs = SPEC.build_jobs()
        jobs.clear()
        assert SPEC.build_jobs() == SPEC._build_jobs(None)

    def test_ref_spec_against_store_without_trace_raises(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        ref = dataclasses.replace(
            SPEC, n_jobs=0, trace_ref=store.put(((0, 0.0, 4, 10.0), (1, 1.0, 8, 5.0)))
        )
        assert ref.build_jobs(store) == ref._build_jobs(store)  # now memoised
        with pytest.raises(KeyError, match="not in store"):
            ref.build_jobs(TraceStore(tmp_path / "empty"))
        store.remove(ref.trace_ref)
        with pytest.raises(KeyError, match="not in store"):
            ref.build_jobs(store)
