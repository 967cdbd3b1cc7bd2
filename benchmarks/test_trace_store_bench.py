"""Benchmarks for the content-addressed trace store (repro.trace.store).

Three claims behind the trace store, measured on the boosted Fig 9/10
workload (the repo's heaviest explicit-trace cells):

* the worker-dispatch payload is O(1) in the trace length: a spec
  carries only its trace's digest,
* cell artifacts do not embed trace rows and pack per-job results, so
  a boosted-fig9 artifact is >10x smaller than the format-1 encoding
  of the identical cell (spec with inline rows, full job rows),
* an explicit-trace sweep writes its trace to disk exactly once.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments.config import Scale
from repro.experiments.metric_correlation import _boosted_trace
from repro.mesh.topology import Mesh
from repro.runner import ExperimentSpec, ResultCache, run_cell, run_many, sweep_specs
from repro.runner.spec import _job_to_list, summary_to_dict
from repro.trace.archive import trace_rows
from repro.trace.store import trace_digest

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

MESH = Mesh(16, 16)


def format1_bytes(cell, store) -> int:
    """Size of ``cell`` in the pre-refactor format-1 artifact encoding
    (plain JSON: the spec with its trace's rows from ``store`` inline,
    full job rows), frozen here as the reference the format-2 artifact
    is measured against."""
    spec = cell.spec.to_dict()
    spec["trace"] = [list(row) for row in store.get(spec.pop("trace_ref"))]
    payload = {
        "format": 1,
        "spec": spec,
        "summary": summary_to_dict(cell.summary),
        "jobs": [_job_to_list(j) for j in cell.jobs],
        "elapsed": cell.elapsed,
    }
    return len(json.dumps(payload).encode())


@pytest.fixture(scope="module")
def boosted_trace():
    """The Fig 9/10 workload: scale trace with 128-node jobs boosted."""
    return trace_rows(_boosted_trace(BENCH_SCALE, MESH))


def fig9_spec(trace) -> ExperimentSpec:
    """One boosted-fig9 cell (n-body, load 1.0 -- the driver's grid)
    replaying ``trace``; a cache must hold the rows to run or store it."""
    return ExperimentSpec(
        mesh_shape=MESH.shape,
        pattern="n-body",
        allocator="hilbert+bf",
        load=1.0,
        seed=BENCH_SCALE.seed,
        trace_ref=trace_digest(trace),
    )


class TestDispatchPayload:
    def test_payload_is_trace_length_invariant(self, boosted_trace):
        """Specs cost the same bytes no matter how long the log is."""
        short = fig9_spec(boosted_trace[:10])
        long = fig9_spec(boosted_trace)
        print(
            f"\nworker payload: {len(pickle.dumps(long))} B for a "
            f"{len(boosted_trace)}-row trace"
        )
        assert abs(len(pickle.dumps(short)) - len(pickle.dumps(long))) < 16


class TestArtifactSize:
    def test_boosted_fig9_artifact_shrinks_10x(self, boosted_trace, tmp_path):
        """The acceptance criterion: no embedded trace rows, packed job
        columns, gzip -- >10x smaller than the format-1 encoding of the
        *same* computed cell, decoding back bit-identically."""
        cache = ResultCache(tmp_path / "c")
        cache.traces.put(boosted_trace)
        spec = fig9_spec(boosted_trace)
        cell = run_cell(spec, store=cache.traces)
        pre = format1_bytes(cell, cache.traces)
        path = cache.put(cell)
        post = path.stat().st_size
        ratio = pre / post
        print(
            f"\nboosted-fig9 artifact ({len(cell.jobs)} jobs): "
            f"format-1 {pre / 1024:.0f} kB -> format-2 {post / 1024:.1f} kB "
            f"({ratio:.1f}x smaller)"
        )
        hit = ResultCache(tmp_path / "c").get(spec)
        assert hit is not None
        assert hit.jobs == cell.jobs and hit.summary == cell.summary
        assert ratio > 10.0

    def test_trace_stored_once_across_grid(self, boosted_trace, tmp_path):
        """N cells sharing a trace cost one store entry, not N copies."""
        cache = ResultCache(tmp_path / "c")
        grid = sweep_specs(
            MESH.shape,
            ("ring",),
            (1.0, 0.5),
            ("mc", "hilbert+bf"),
            seed=BENCH_SCALE.seed,
            trace_ref=cache.traces.put(boosted_trace),
        )
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
        # the cached run must produce what running each cell directly does
        direct = [run_cell(spec, store=cache.traces) for spec in grid]
        assert [c.summary for c in cells] == [c.summary for c in direct]
