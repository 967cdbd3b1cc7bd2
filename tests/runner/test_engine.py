"""Tests for run_cell / run_many: determinism, caching, fan-out."""

import pytest

from repro.experiments.config import Scale
from repro.runner import (
    MIXED_A2A_NBODY,
    ExperimentSpec,
    ResultCache,
    run_cell,
    run_many,
    sweep_specs,
)
from repro.runner import engine as engine_mod

TINY = Scale(
    name="tiny",
    n_jobs=30,
    runtime_scale=0.01,
    loads=(1.0, 0.4),
    fig1_repetitions=1,
    fig1_samples=4,
    fig9_min_samples=4,
    seed=2,
)

GRID = sweep_specs(
    (8, 8),
    ("all-to-all",),
    TINY.loads,
    ("hilbert+bf", "mc1x1"),
    seed=TINY.seed,
    n_jobs=TINY.n_jobs,
    runtime_scale=TINY.runtime_scale,
)


class TestRunCell:
    def test_deterministic(self):
        a, b = run_cell(GRID[0]), run_cell(GRID[0])
        assert a.summary == b.summary
        assert a.jobs == b.jobs

    def test_mixed_pattern_sentinel(self):
        spec = ExperimentSpec(
            mesh_shape=(8, 8),
            pattern=MIXED_A2A_NBODY,
            allocator="hybrid",
            load=1.0,
            seed=2,
            n_jobs=15,
            runtime_scale=0.01,
        )
        cell = run_cell(spec)
        assert cell.summary.pattern == MIXED_A2A_NBODY
        assert cell.summary.n_jobs > 0


class TestRunMany:
    def test_parallel_identical_to_serial(self):
        """The tentpole determinism guarantee: jobs=4 == serial, cell for
        cell, for the same seeds."""
        serial = run_many(GRID, jobs=1)
        parallel = run_many(GRID, jobs=4, tier="process")
        assert [c.summary for c in parallel] == [c.summary for c in serial]
        assert [c.jobs for c in parallel] == [c.jobs for c in serial]

    def test_result_order_matches_spec_order(self):
        cells = run_many(GRID, jobs=4, tier="process")
        assert [c.spec for c in cells] == GRID

    def test_second_run_is_pure_cache_no_recompute(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        first = run_many(GRID, cache=cache)
        assert cache.misses == len(GRID)
        assert not any(c.cached for c in first)

        # Any attempt to compute after warm-up is a test failure.
        def _explode(spec):
            raise AssertionError(f"recomputed {spec}")

        monkeypatch.setattr(engine_mod, "run_cell", _explode)
        second = run_many(GRID, cache=cache)
        assert all(c.cached for c in second)
        assert cache.hits == len(GRID)
        assert [c.summary for c in second] == [c.summary for c in first]

    def test_duplicate_specs_computed_once(self, tmp_path):
        calls = []
        cells = run_many(
            [GRID[0], GRID[0], GRID[1]],
            progress=lambda done, total, cell: calls.append((done, total)),
        )
        assert cells[0].summary == cells[1].summary
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_empty_spec_list(self):
        assert run_many([]) == []

    def test_cache_survives_parallel_run(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_many(GRID, jobs=3, cache=cache, tier="process")
        assert len(cache) == len(GRID)
        warm = ResultCache(tmp_path / "c")
        again = run_many(GRID, jobs=3, cache=warm)
        assert warm.hits == len(GRID) and warm.misses == 0
        assert all(c.cached for c in again)


class TestTraceRefGrids:
    """Explicit-trace cells hydrate from the cache's workload store, or
    from the default store when there is no cache."""

    TRACE = tuple((i, 40.0 * i, 2 ** (i % 4), 25.0) for i in range(24))

    def _grid(self, store):
        return sweep_specs(
            (8, 8), ("ring",), (1.0, 0.5), ("mc", "hilbert+bf"),
            seed=3, trace_ref=store.put(self.TRACE),
        )

    def test_cached_results_equal_cacheless(self, tmp_path):
        from repro.trace.store import default_store

        cacheless = run_many(self._grid(default_store()))
        cache = ResultCache(tmp_path / "c")
        cached = run_many(self._grid(cache.traces), cache=cache)
        assert [c.summary for c in cached] == [c.summary for c in cacheless]
        assert [c.jobs for c in cached] == [c.jobs for c in cacheless]
        assert len(cache.traces) == 1
        assert len(cache) == len(cached)

    def test_parallel_workers_hydrate_from_store(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        serial = run_many(self._grid(cache.traces), cache=cache)
        other = ResultCache(tmp_path / "c2")
        parallel = run_many(
            self._grid(other.traces), jobs=3, cache=other, tier="process"
        )
        assert [c.summary for c in parallel] == [c.summary for c in serial]
        assert [c.jobs for c in parallel] == [c.jobs for c in serial]

    def test_warm_cache_serves_ref_submissions(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = run_many(self._grid(cache.traces), cache=cache)
        warm = ResultCache(tmp_path / "c")
        second = run_many(self._grid(warm.traces), cache=warm)
        assert warm.hits == len(second) and warm.misses == 0
        assert [c.summary for c in second] == [c.summary for c in first]
        assert [c.jobs for c in second] == [c.jobs for c in first]

    def test_cacheless_workers_hydrate_from_default_store(self):
        from repro.trace.store import default_store

        grid = self._grid(default_store())
        parallel = run_many(grid, jobs=2, tier="process")
        serial = run_many(grid)
        assert [c.summary for c in parallel] == [c.summary for c in serial]

    def test_run_many_takes_no_store(self):
        """The store follows the cache; there is no second way to pass one."""
        import inspect

        assert "store" not in inspect.signature(run_many).parameters


class TestSweepDeterminism:
    def test_sweep_with_cache_matches_uncached(self, tmp_path):
        specs = sweep_specs(
            (8, 8), ("ring",), TINY.loads, ("mc",), seed=TINY.seed,
            n_jobs=TINY.n_jobs, runtime_scale=TINY.runtime_scale,
        )
        cache = ResultCache(tmp_path / "c")
        uncached = run_many(specs)
        warmed = run_many(specs, cache=cache)
        cached = run_many(specs, cache=cache)
        assert [c.summary for c in warmed] == [c.summary for c in uncached]
        assert [c.summary for c in cached] == [c.summary for c in uncached]
        assert cache.hits == len(warmed)
