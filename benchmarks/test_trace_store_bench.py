"""Benchmarks for the content-addressed trace store (repro.trace.store).

Three claims behind the interning refactor, measured on the boosted
Fig 9/10 workload (the repo's heaviest explicit-trace cells):

* the worker-dispatch payload collapses from O(trace) to O(1): a ref
  spec pickles >10x smaller than the same spec with inline rows,
* cell artifacts stop embedding trace rows and pack per-job results, so
  a boosted-fig9 artifact shrinks >10x versus the pre-refactor format-1
  encoding of the identical cell,
* an explicit-trace sweep produces identical results through the
  interned path, with the trace written to disk exactly once.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments.config import Scale
from repro.experiments.metric_correlation import _boosted_trace
from repro.mesh.topology import Mesh2D
from repro.runner import ExperimentSpec, ResultCache, run_cell, run_many, sweep_specs
from repro.trace.archive import trace_rows

#: Big enough that per-job payloads dominate fixed overheads, scaled so
#: the n-body cell still simulates in seconds.
BENCH_SCALE = Scale(
    name="bench",
    n_jobs=1200,
    runtime_scale=0.002,
    loads=(1.0,),
    fig1_repetitions=1,
    fig1_samples=4,
    fig9_min_samples=24,
    seed=3,
)

MESH = Mesh2D(16, 16)


@pytest.fixture(scope="module")
def boosted_trace():
    """The Fig 9/10 workload: scale trace with 128-node jobs boosted."""
    return trace_rows(_boosted_trace(BENCH_SCALE, MESH))


@pytest.fixture(scope="module")
def fig9_spec(boosted_trace):
    """One boosted-fig9 cell (n-body, load 1.0 -- the driver's grid)."""
    return ExperimentSpec(
        mesh_shape=MESH.shape,
        pattern="n-body",
        allocator="hilbert+bf",
        load=1.0,
        seed=BENCH_SCALE.seed,
        trace=boosted_trace,
    )


class TestDispatchPayload:
    def test_ref_spec_pickles_10x_smaller(self, fig9_spec, tmp_path):
        cache = ResultCache(tmp_path / "c")
        ref = fig9_spec.intern(cache.traces)
        inline_bytes = len(pickle.dumps(fig9_spec))
        ref_bytes = len(pickle.dumps(ref))
        ratio = inline_bytes / ref_bytes
        print(
            f"\nworker payload: inline {inline_bytes} B -> ref {ref_bytes} B "
            f"({ratio:.0f}x smaller, {len(fig9_spec.trace)}-row trace)"
        )
        assert ratio > 10.0

    def test_payload_is_trace_length_invariant(self, fig9_spec, tmp_path):
        """Ref specs cost the same bytes no matter how long the log is."""
        cache = ResultCache(tmp_path / "c")
        short = ExperimentSpec(
            **{**fig9_spec.to_dict(), "trace": fig9_spec.trace[:10]}
        ).intern(cache.traces)
        long = fig9_spec.intern(cache.traces)
        assert abs(len(pickle.dumps(short)) - len(pickle.dumps(long))) < 16


class TestArtifactSize:
    def test_boosted_fig9_artifact_shrinks_10x(self, fig9_spec, tmp_path):
        """The acceptance criterion: no embedded trace rows, packed job
        columns, gzip -- >10x smaller than the format-1 encoding of the
        *same* computed cell, decoding back bit-identically."""
        cell = run_cell(fig9_spec)
        pre = len(json.dumps({"format": 1, **cell.to_dict()}).encode())
        cache = ResultCache(tmp_path / "c")
        path = cache.put(cell)
        post = path.stat().st_size
        ratio = pre / post
        print(
            f"\nboosted-fig9 artifact ({len(cell.jobs)} jobs): "
            f"format-1 {pre / 1024:.0f} kB -> format-2 {post / 1024:.1f} kB "
            f"({ratio:.1f}x smaller)"
        )
        hit = ResultCache(tmp_path / "c").get(fig9_spec)
        assert hit is not None
        assert hit.jobs == cell.jobs and hit.summary == cell.summary
        assert ratio > 10.0

    def test_trace_stored_once_across_grid(self, boosted_trace, tmp_path):
        """N cells sharing a trace cost one store entry, not N copies."""
        grid = sweep_specs(
            MESH.shape,
            ("ring",),
            (1.0, 0.5),
            ("mc", "hilbert+bf"),
            seed=BENCH_SCALE.seed,
            trace=boosted_trace,
        )
        cache = ResultCache(tmp_path / "c")
        cells = run_many(grid, cache=cache)
        assert len(cache.traces) == 1
        trace_bytes = cache.traces.size_bytes()
        artifact_bytes = sum(p.stat().st_size for p in cache._artifact_paths())
        inline_equiv = len(grid) * trace_bytes + artifact_bytes
        print(
            f"\n{len(grid)}-cell grid: trace stored once ({trace_bytes / 1024:.0f} kB) "
            f"+ {artifact_bytes / 1024:.0f} kB artifacts "
            f"(inline-era lower bound ~{inline_equiv / 1024:.0f} kB)"
        )
        # the interned path must still produce the inline path's numbers
        inline_cells = run_many(grid)
        assert [c.summary for c in cells] == [c.summary for c in inline_cells]
