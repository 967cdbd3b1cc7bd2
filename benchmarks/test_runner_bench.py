"""Benchmarks for the parallel experiment engine (repro.runner).

Claims, measured on multi-cell sweep grids:

* fanning cells out over workers gives wall-clock speedup on multi-core
  hardware (asserted only when cores are available -- single-core CI
  still checks result parity),
* a warm cache makes repeating the sweep nearly free,
* parallel and serial runs produce identical cells (the determinism
  guarantee the correctness tests rely on),
* the ``auto`` execution tier beats the forced ``process`` tier by >=2x
  on a 100-tiny-cell grid, where Pool spin-up and IPC dominate the
  simulations themselves (the tentpole claim of the tier refactor; a
  ``timing`` test, see ``conftest.py``, with its correctness half
  separate).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.experiments.config import Scale
from repro.runner import ResultCache, run_many, sweep_specs
from repro.trace.store import default_store, trace_digest

#: Sweep sized so the grid dominates process-pool overhead.
BENCH_SCALE = Scale(
    name="bench",
    n_jobs=100,
    runtime_scale=0.01,
    loads=(1.0, 0.6),
    fig1_repetitions=1,
    fig1_samples=4,
    fig9_min_samples=4,
    seed=3,
)

GRID = sweep_specs(
    (16, 16),
    ("all-to-all",),
    BENCH_SCALE.loads,
    ("hilbert+bf", "mc1x1", "s-curve+bf"),
    seed=BENCH_SCALE.seed,
    n_jobs=BENCH_SCALE.n_jobs,
    runtime_scale=BENCH_SCALE.runtime_scale,
)

N_CORES = multiprocessing.cpu_count()


def _timed(**kwargs):
    start = time.perf_counter()
    cells = run_many(GRID, **kwargs)
    return cells, time.perf_counter() - start


class TestEngineBench:
    def test_parallel_sweep_speedup(self):
        """Multi-core fan-out beats the serial path on the same grid."""
        serial_cells, serial_s = _timed(jobs=1)
        workers = min(N_CORES, len(GRID))
        parallel_cells, parallel_s = _timed(jobs=workers)

        # Identical numbers regardless of dispatch (determinism guarantee).
        assert [c.summary for c in parallel_cells] == [
            c.summary for c in serial_cells
        ]

        speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
        print(
            f"\n{len(GRID)}-cell sweep: serial {serial_s:.2f}s, "
            f"jobs={workers} {parallel_s:.2f}s, speedup {speedup:.2f}x "
            f"({N_CORES} cores)"
        )
        # Only assert on genuinely parallel hardware; shared 2-core CI
        # runners are too noisy for a hard wall-clock bound.
        if N_CORES >= 4:
            assert speedup > 1.0, (
                f"expected multi-core speedup, got {speedup:.2f}x "
                f"(serial {serial_s:.2f}s vs parallel {parallel_s:.2f}s)"
            )

    def test_warm_cache_makes_rerun_nearly_free(self, tmp_path):
        cache = ResultCache(tmp_path / "bench-cache")
        cold_cells, cold_s = _timed(cache=cache)
        warm_cells, warm_s = _timed(cache=cache)

        assert cache.hits == len(GRID)
        assert all(c.cached for c in warm_cells)
        assert [c.summary for c in warm_cells] == [c.summary for c in cold_cells]
        # Loading JSON artifacts must be far cheaper than simulating.
        assert warm_s < cold_s / 4, (
            f"cache rerun not cheap: cold {cold_s:.2f}s vs warm {warm_s:.2f}s"
        )
        print(
            f"\ncold {cold_s:.2f}s -> warm {warm_s:.3f}s "
            f"({cold_s / max(warm_s, 1e-9):.0f}x faster)"
        )

    def test_engine_overhead_records_elapsed(self):
        cells = run_many(GRID[:1])
        assert cells[0].elapsed > 0.0


#: 100 deliberately tiny cells (4 loads x 5 allocators x 5 seeds of a
#: single 1-node job on a 2x2 mesh): the smallest *real* cell the stack
#: can run -- the shape where dispatch overhead, not simulation, is the
#: bill.  The cells run without a cache, so they hydrate their one-row
#: trace from the default workload store (see ``TestTierBench``).
TINY_TRACE = ((0, 0.0, 1, 10.0),)

TINY_GRID = [
    spec
    for seed in (1, 2, 3, 4, 5)
    for spec in sweep_specs(
        (2, 2),
        ("ring",),
        (1.0, 0.8, 0.6, 0.4),
        ("row-major", "s-curve", "hilbert", "hilbert+bf", "s-curve+bf"),
        seed=seed,
        trace_ref=trace_digest(TINY_TRACE),
    )
]

#: Worker count a user would tune for the repo's *big* campaigns; the
#: auto policy's job is exactly to ignore it for grids this small.
TINY_JOBS = 8


def _auto_vs_forced_process():
    """``TINY_GRID`` through ``auto`` and the forced ``process`` tier:
    ``(auto cells, process cells, auto s, process s)``, each time the
    best of two (a stable estimator of each tier's cost)."""
    run_many(TINY_GRID[:4])  # absorb one-time import/numpy warm-up
    auto_s, process_s = float("inf"), float("inf")
    for _ in range(2):
        start = time.perf_counter()
        auto_cells = run_many(TINY_GRID, jobs=TINY_JOBS, tier="auto")
        auto_s = min(auto_s, time.perf_counter() - start)
        start = time.perf_counter()
        process_cells = run_many(TINY_GRID, jobs=TINY_JOBS, tier="process")
        process_s = min(process_s, time.perf_counter() - start)
    return auto_cells, process_cells, auto_s, process_s


class TestTierBench:
    @pytest.fixture(autouse=True)
    def _tiny_trace_in_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        default_store().put(TINY_TRACE)

    def test_auto_tier_matches_forced_process_on_tiny_cells(self):
        """Correctness half of the tier-refactor headline: on 100 tiny
        cells ``auto`` and the forced Pool path give identical cells.
        The >=2x wall-clock half is
        :meth:`test_wall_clock_auto_tier_beats_forced_process_on_tiny_cells`.
        """
        auto_cells, process_cells, _, _ = _auto_vs_forced_process()
        assert [c.summary for c in auto_cells] == [c.summary for c in process_cells]
        assert [c.jobs for c in auto_cells] == [c.jobs for c in process_cells]

    @pytest.mark.timing
    def test_wall_clock_auto_tier_beats_forced_process_on_tiny_cells(self):
        """The tier-refactor headline: on 100 tiny cells, ``auto``
        (which collapses to inline after probing) beats forcing the Pool
        path >=2x, because fork/IPC/teardown dwarf the sub-millisecond
        simulations.  Asserted only where a Pool cannot amortize (at
        most 4 cores), the same gating the parallel-speedup bench uses in
        the opposite direction.
        """
        _, _, auto_s, process_s = _auto_vs_forced_process()
        speedup = process_s / auto_s if auto_s > 0 else float("inf")
        print(
            f"\n{len(TINY_GRID)} tiny cells: auto {auto_s * 1e3:.0f} ms, "
            f"forced process (jobs={TINY_JOBS}) {process_s * 1e3:.0f} ms, "
            f"speedup {speedup:.2f}x ({N_CORES} cores)"
        )
        if N_CORES <= 4:
            assert speedup >= 2.0, (
                f"auto tier should beat forced process >=2x on tiny cells, got "
                f"{speedup:.2f}x (auto {auto_s:.3f}s vs process {process_s:.3f}s)"
            )
