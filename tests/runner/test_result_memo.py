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
from repro.runner import ExperimentSpec, ResultCache, run_cell
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

    def test_rewrite_by_vacuum_repack_is_decoded_again(self, tmp_path, reads):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(run_cell(SPEC))
        cache.get(SPEC)
        # rewrite the artifact in the legacy timestamped-gzip form, then
        # let repack put the canonical bytes back
        payload = gzip.decompress(path.read_bytes())
        with open(path, "wb") as raw:
            with gzip.GzipFile(
                filename="legacy.json", fileobj=raw, mode="wb", mtime=123456789
            ) as fh:
                fh.write(payload)
        assert cache.vacuum(repack=True).repacked_artifacts == 1
        before = len(reads)
        assert cache.get(SPEC) is not None
        assert len(reads) == before + 1
        assert (cache.hits, cache.misses) == (2, 0)

    def test_pruned_artifact_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(run_cell(SPEC))
        assert cache.get(SPEC) is not None
        assert cache.prune(keys={cache.key_for(SPEC)})
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
        key = cache.key_for(SPEC)
        assert not cache.artifact_exists(key)
        cache.put(run_cell(SPEC))
        assert cache.artifact_exists(key)
        assert reads == []


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
        inline = dataclasses.replace(
            SPEC, n_jobs=0, trace=((0, 0.0, 4, 10.0), (1, 1.0, 8, 5.0))
        )
        ref = inline.intern(store)
        assert ref.build_jobs(store) == inline.build_jobs()  # now memoised
        with pytest.raises(KeyError, match="not in store"):
            ref.build_jobs(TraceStore(tmp_path / "empty"))
        store.remove(ref.trace_ref)
        with pytest.raises(KeyError, match="not in store"):
            ref.build_jobs(store)
