"""Tests for ExperimentSpec / CellResult serialization and hashing."""

import json

import pytest

from repro.runner import ExperimentSpec, ResultCache, cell_digest, run_cell
from repro.runner.spec import (
    _job_from_list,
    _job_to_list,
    summary_from_dict,
    summary_to_dict,
)
from repro.sched.job import Job, JobResult
from repro.trace.archive import trace_rows
from repro.trace.store import TraceStore, trace_digest
from repro.trace.synthetic import apply_load_factor, drop_oversized, sdsc_paragon_trace

SPEC = ExperimentSpec(
    mesh_shape=(8, 8),
    pattern="ring",
    allocator="hilbert+bf",
    load=0.6,
    seed=3,
    n_jobs=20,
    runtime_scale=0.01,
)

SPEC_3D = ExperimentSpec(
    mesh_shape=(8, 8, 8),
    torus=True,
    pattern="all-to-all",
    allocator="hilbert+bf",
    load=1.0,
    seed=1,
    n_jobs=20,
    runtime_scale=0.01,
)

#: The explicit trace of the pinned ref cell below.
PINNED_TRACE = ((0, 0.0, 4, 30.0), (1, 5.0, 8, 12.5))

#: Cache keys of representative 2-D specs recorded *before* the N-D
#: refactor.  These must never change: they are what keeps pre-existing
#: ``.repro-cache/`` artifacts valid.  If one of these fails, the spec
#: serialization changed in a cache-invalidating way.  The explicit-trace
#: cell is the exception: its key was first recorded with its rows hashed
#: in, and is pinned here as the cell digest of its ``trace_ref`` form,
#: the key ever since ref cells were keyed without reading the store.
PRE_REFACTOR_KEYS = {
    ExperimentSpec(
        mesh_shape=(8, 8),
        pattern="ring",
        allocator="hilbert+bf",
        load=0.6,
        seed=3,
        n_jobs=20,
        runtime_scale=0.01,
    ): "22fe8c056a6df34915b75b5ca5c244462b16f6a0594e756a523d63daef79e11f",
    ExperimentSpec(
        mesh_shape=(16, 22),
        pattern="all-to-all",
        allocator="mc",
        load=1.0,
        seed=1,
        n_jobs=150,
        runtime_scale=0.01,
    ): "4c168d3f22db8191228747fae39055de861c1986e160be33ab33cffe4e3c9848",
    ExperimentSpec(
        mesh_shape=(16, 16),
        pattern="n-body",
        allocator="s-curve",
        load=0.4,
        seed=2,
        trace_ref=trace_digest(PINNED_TRACE),
    ): "595ce5021d197e0988be9559941ff884dd25635c822509c46fca8acc5576a7be",
    ExperimentSpec(
        mesh_shape=(16, 16),
        pattern="random",
        allocator="gen-alg",
        load=0.8,
        seed=7,
        n_jobs=10,
        network=(("hop_latency", 0.5),),
        scheduler="easy",
    ): "c6345515b4e4a950769efd8edab6d7a84bf1b698853ba1df28d65a97d4768065",
}


class TestExperimentSpec:
    def test_hashable_and_equal(self):
        clone = ExperimentSpec.from_dict(SPEC.to_dict())
        assert clone == SPEC
        assert hash(clone) == hash(SPEC)
        assert len({SPEC, clone}) == 1

    def test_list_inputs_normalised(self):
        spec = ExperimentSpec(
            mesh_shape=[8, 8],  # type: ignore[arg-type]
            pattern="ring",
            allocator="mc",
            load=1.0,
            seed=1,
            n_jobs=5,
            network=[["hop_latency", 0.5]],  # type: ignore[arg-type]
        )
        assert spec.mesh_shape == (8, 8)
        assert spec.network == (("hop_latency", 0.5),)
        hash(spec)  # tuples throughout -> hashable

    def test_json_round_trip(self):
        data = json.loads(json.dumps(SPEC.to_dict()))
        assert ExperimentSpec.from_dict(data) == SPEC

    def test_cache_key_stable_and_sensitive(self):
        assert cell_digest(SPEC) == cell_digest(ExperimentSpec.from_dict(SPEC.to_dict()))
        for changed in (
            ExperimentSpec.from_dict({**SPEC.to_dict(), "mesh_shape": (8, 9)}),
            ExperimentSpec.from_dict({**SPEC.to_dict(), "allocator": "mc"}),
            ExperimentSpec.from_dict({**SPEC.to_dict(), "load": 0.4}),
            ExperimentSpec.from_dict({**SPEC.to_dict(), "seed": 4}),
        ):
            assert cell_digest(changed) != cell_digest(SPEC)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                mesh_shape=(8,), pattern="ring", allocator="mc", load=1.0, seed=0, n_jobs=5
            )
        for load in (0.0, float("nan")):
            with pytest.raises(ValueError, match="load must be positive"):
                ExperimentSpec(
                    mesh_shape=(8, 8), pattern="ring", allocator="mc", load=load,
                    seed=0, n_jobs=5,
                )
        with pytest.raises(ValueError):  # no trace and no synthetic length
            ExperimentSpec(
                mesh_shape=(8, 8), pattern="ring", allocator="mc", load=1.0, seed=0
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentSpec.from_dict({**SPEC.to_dict(), "seed": -1})

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan")])
    def test_nonpositive_runtime_scale_rejected_on_synthetic_specs(self, scale):
        with pytest.raises(ValueError, match="runtime_scale must be positive"):
            ExperimentSpec.from_dict({**SPEC.to_dict(), "runtime_scale": scale})

    def test_runtime_scale_ignored_by_explicit_traces(self):
        """An explicit trace never reads ``runtime_scale``, so any value
        is accepted there."""
        spec = ExperimentSpec.from_dict(
            {**SPEC.to_dict(), "n_jobs": 0, "runtime_scale": 0.0, "trace_ref": "a" * 64}
        )
        assert spec.runtime_scale == 0.0

    def test_build_jobs_matches_driver_pipeline(self):
        expected = apply_load_factor(
            drop_oversized(
                sdsc_paragon_trace(seed=3, n_jobs=20, runtime_scale=0.01), 64
            ),
            0.6,
        )
        assert SPEC.build_jobs() == expected

    def test_network_params_round_trip(self):
        from repro.network.fluid import NetworkParams

        # Defaults collapse to None and leave the cache key unchanged.
        assert ExperimentSpec.from_network_params(NetworkParams()) is None

        custom = NetworkParams(hop_latency=0.5, message_flits=32.0)
        spec = ExperimentSpec.from_dict(
            {**SPEC.to_dict(), "network": ExperimentSpec.from_network_params(custom)}
        )
        assert spec.network_params() == custom
        assert cell_digest(spec) != cell_digest(SPEC)
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec and clone.network_params() == custom

    def test_2d_cache_keys_unchanged_by_nd_refactor(self, tmp_path):
        """Regression guard: pre-refactor artifacts must stay addressable."""
        store = TraceStore(tmp_path / "traces")
        assert store.put(PINNED_TRACE) == trace_digest(PINNED_TRACE)
        for spec, key in PRE_REFACTOR_KEYS.items():
            assert cell_digest(spec) == key, spec

    def test_2d_spec_dict_omits_torus_default(self):
        """The torus flag must not leak into legacy serialized forms."""
        assert "torus" not in SPEC.to_dict()
        assert SPEC_3D.to_dict()["torus"] is True

    def test_build_jobs_from_explicit_trace(self, tmp_path):
        trace = [Job(0, 0.0, 4, 30.0), Job(1, 10.0, 100, 30.0)]
        store = TraceStore(tmp_path / "traces")
        spec = ExperimentSpec(
            mesh_shape=(8, 8),
            pattern="ring",
            allocator="mc",
            load=0.5,
            seed=0,
            trace_ref=store.put(trace_rows(trace)),
        )
        jobs = spec.build_jobs(store)
        assert len(jobs) == 1  # the 100-proc job is oversized for 8x8
        assert jobs[0].arrival == 0.0 and jobs[0].size == 4


class TestExperimentSpec3D:
    def test_round_trip_and_hash(self):
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(SPEC_3D.to_dict())))
        assert clone == SPEC_3D
        assert hash(clone) == hash(SPEC_3D)
        assert cell_digest(clone) == cell_digest(SPEC_3D)

    def test_cache_key_sensitive_to_new_dimension(self):
        flat = ExperimentSpec.from_dict({**SPEC_3D.to_dict(), "mesh_shape": (8, 64)})
        mesh = ExperimentSpec.from_dict({**SPEC_3D.to_dict(), "torus": False})
        deeper = ExperimentSpec.from_dict({**SPEC_3D.to_dict(), "mesh_shape": (8, 8, 9)})
        keys = {cell_digest(s) for s in (SPEC_3D, flat, mesh, deeper)}
        assert len(keys) == 4

    def test_validation_rejects_other_ranks(self):
        for bad in ((8,), (2, 2, 2, 2)):
            with pytest.raises(ValueError):
                ExperimentSpec(
                    mesh_shape=bad, pattern="ring", allocator="hilbert",
                    load=1.0, seed=0, n_jobs=5,
                )

    def test_build_jobs_uses_full_torus_capacity(self, tmp_path):
        trace = [Job(0, 0.0, 400, 30.0), Job(1, 1.0, 600, 30.0)]
        store = TraceStore(tmp_path / "traces")
        spec = ExperimentSpec(
            mesh_shape=(8, 8, 8),
            torus=True,
            pattern="ring",
            allocator="hilbert",
            load=1.0,
            seed=0,
            trace_ref=store.put(trace_rows(trace)),
        )
        jobs = spec.build_jobs(store)
        assert [j.size for j in jobs] == [400]  # 600 > 512 dropped

    def test_run_cell_executes_3d_spec(self, tmp_path):
        small = ExperimentSpec.from_dict(
            {**SPEC_3D.to_dict(), "mesh_shape": (4, 4, 4), "n_jobs": 8}
        )
        cell = run_cell(small)
        assert cell.summary.mesh_shape == (4, 4, 4)
        assert cell.summary.n_jobs > 0
        cache = ResultCache(tmp_path / "c")
        cache.put(cell)
        clone = cache.get(small)
        assert clone.spec == small and clone.summary == cell.summary


class TestTraceRefSpecs:
    """Explicit-trace specs: a content address into the workload store."""

    TRACE = PINNED_TRACE

    def _ref(self, store: TraceStore, **overrides) -> ExperimentSpec:
        base = dict(
            mesh_shape=(16, 16),
            pattern="n-body",
            allocator="s-curve",
            load=0.4,
            seed=2,
            trace_ref=store.put(self.TRACE),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_base_trace_resolves_stored_rows(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        ref = self._ref(store)
        assert ref.trace_ref == trace_digest(self.TRACE)
        assert ref.base_trace(store) == self.TRACE

    def test_key_needs_no_store(self, tmp_path):
        """A ref cell's artifact is named by its cell digest even where
        no store holds its trace: the key never reads the rows."""
        ref = self._ref(TraceStore(tmp_path / "traces"))
        cache = ResultCache(tmp_path / "empty")
        assert ref.trace_ref not in cache.traces
        assert cache.path_for(ref).name == f"{cell_digest(ref)}.json.gz"
        assert cell_digest(ref) == (
            "595ce5021d197e0988be9559941ff884dd25635c822509c46fca8acc5576a7be"
        )  # pinned in PRE_REFACTOR_KEYS above

    def test_json_round_trip_preserves_ref(self, tmp_path):
        ref = self._ref(TraceStore(tmp_path / "t"))
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(ref.to_dict())))
        assert clone == ref and clone.trace_ref == ref.trace_ref

    def test_dict_keeps_null_trace_and_omits_absent_ref(self, tmp_path):
        assert self._ref(TraceStore(tmp_path / "t")).to_dict()["trace"] is None
        assert SPEC.to_dict()["trace"] is None
        assert "trace_ref" not in SPEC.to_dict()

    def test_inline_rows_are_not_a_spec_form(self):
        with pytest.raises(TypeError):
            ExperimentSpec(
                mesh_shape=(8, 8), pattern="ring", allocator="mc", load=1.0,
                seed=1, trace=self.TRACE,
            )
        data = {**SPEC.to_dict(), "n_jobs": 0, "trace": [list(r) for r in self.TRACE]}
        with pytest.raises(ValueError, match="inline trace rows"):
            ExperimentSpec.from_dict(data)

    def test_trace_ref_must_be_a_digest(self, tmp_path):
        with pytest.raises(ValueError, match="64-char"):
            self._ref(TraceStore(tmp_path / "t"), trace_ref="zz")

    def test_run_cell_hydrates_from_the_given_store(self, tmp_path):
        """The store is transport: any store holding the rows gives the
        same cell, the default store included."""
        from repro.trace.store import default_store

        store = TraceStore(tmp_path / "traces")
        ref = self._ref(store, pattern="ring", load=1.0)
        a = run_cell(ref, store=store)
        default_store().put(self.TRACE)
        b = run_cell(ref)
        assert a.summary == b.summary
        assert a.jobs == b.jobs

    def test_missing_trace_raises_clearly(self, tmp_path):
        ref = self._ref(TraceStore(tmp_path / "t"), trace_ref="a" * 64)
        with pytest.raises(KeyError, match="not in store"):
            ref.build_jobs(TraceStore(tmp_path / "empty"))

    def test_trace_rows_type_normalised(self, tmp_path):
        # ints where floats belong (and vice versa) must not change the key
        store = TraceStore(tmp_path / "traces")
        messy = store.put(((0, 0, 4.0, 30), (1, 5, 8, 12.5)))
        assert messy == self._ref(store).trace_ref
        assert store.get(messy) == self.TRACE


class TestCellResult:
    def test_round_trip_exact(self, tmp_path):
        cell = run_cell(SPEC)
        cache = ResultCache(tmp_path / "c")
        cache.put(cell)
        clone = cache.get(SPEC)
        assert clone.spec == cell.spec
        assert clone.summary == cell.summary
        assert clone.jobs == cell.jobs

    def test_to_simulation_result(self):
        cell = run_cell(SPEC)
        sim_result = cell.to_simulation_result()
        assert sim_result.mean_response() == pytest.approx(cell.summary.mean_response)
        assert 0.0 < sim_result.mean_utilization() <= 1.0

    def test_summary_dict_helpers(self):
        cell = run_cell(SPEC)
        assert summary_from_dict(summary_to_dict(cell.summary)) == cell.summary


class TestJobRowCodec:
    """Full-row artifact (de)serialisation across the tenancy widening."""

    def _result(self, **kw):
        return JobResult(
            job_id=0,
            arrival=0.0,
            start=1.0,
            completion=11.0,
            size=4,
            quota=40.0,
            pairwise_hops=2.5,
            message_hops=2.0,
            n_components=1,
            message_pairs=6,
            held=4,
            **kw,
        )

    def test_default_tenancy_trimmed_from_row(self):
        """Sentinel tenancy never reaches disk: legacy artifact bytes."""
        row = _job_to_list(self._result())
        assert len(row) == 11
        assert _job_from_list(row) == self._result()

    def test_tenancy_round_trips_when_present(self):
        job = self._result(user_id=5, priority_class=2)
        row = _job_to_list(job)
        assert row[-2:] == [5, 2]
        assert _job_from_list(row) == job

    def test_user_without_class_keeps_twelve_columns(self):
        job = self._result(user_id=5)
        row = _job_to_list(job)
        assert len(row) == 12
        assert _job_from_list(row) == job

    def test_legacy_eleven_column_row_decodes(self):
        """Rows written before the tenancy fields decode to sentinels."""
        row = _job_to_list(self._result())[:11]
        decoded = _job_from_list(row)
        assert decoded.user_id == -1
        assert decoded.priority_class == 0
