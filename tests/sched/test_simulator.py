"""Tests for repro.sched.simulator: the trace-driven FCFS fluid simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.loop_engine import ENGINES, run_engine

from repro.core.base import Allocation, Allocator
from repro.core.metrics import average_pairwise_hops
from repro.core.registry import make_allocator
from repro.mesh.clos import FatTree
from repro.mesh.machine import AllocationError
from repro.mesh.topology import Mesh
from repro.network.fluid import NetworkParams
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.simulator import Simulation
from repro.sched.stats import summarize


def make_sim(jobs, mesh=None, allocator="hilbert+bf", pattern="all-to-all", **kw):
    mesh = mesh or Mesh(8, 8)
    return Simulation(
        mesh,
        make_allocator(allocator),
        get_pattern(pattern),
        jobs,
        **kw,
    )


class TestBasicRuns:
    def test_single_uncontended_job(self):
        """A single-processor job runs at the nominal 1 msg/s."""
        jobs = [Job(0, 0.0, 1, 100.0)]
        result = make_sim(jobs).run()
        job = result.jobs[0]
        assert job.start == 0.0
        assert job.completion == pytest.approx(100.0)
        assert job.response == pytest.approx(100.0)

    def test_communicating_job_pays_hop_latency(self):
        """A 2x1 job's messages travel 1 hop: rate = 1/(1 + hop_latency).

        ``contention_factor=0`` isolates the latency term (otherwise the
        job's own path-holding adds a small self-congestion stretch).
        """
        params = NetworkParams(hop_latency=0.5, contention_factor=0.0)
        jobs = [Job(0, 0.0, 2, 100.0)]
        result = make_sim(jobs, pattern="ring", params=params).run()
        assert result.jobs[0].duration == pytest.approx(150.0, rel=1e-6)

    def test_self_contention_adds_stretch(self):
        """With contention enabled the same job runs strictly slower."""
        jobs = [Job(0, 0.0, 2, 100.0)]
        base = make_sim(
            jobs, pattern="ring",
            params=NetworkParams(hop_latency=0.5, contention_factor=0.0),
        ).run()
        contended = make_sim(
            jobs, pattern="ring",
            params=NetworkParams(hop_latency=0.5, contention_factor=1.0),
        ).run()
        assert contended.jobs[0].duration > base.jobs[0].duration

    def test_empty_trace(self):
        result = make_sim([]).run()
        assert result.jobs == []
        assert result.makespan == 0.0

    def test_sequential_jobs_no_overlap(self):
        jobs = [Job(0, 0.0, 4, 10.0), Job(1, 1000.0, 4, 10.0)]
        result = make_sim(jobs).run()
        assert result.jobs[0].wait == 0.0
        assert result.jobs[1].wait == 0.0

    def test_fcfs_blocks_whole_machine_job(self):
        """Job 1 needs the whole machine; job 2 (tiny, later) must wait."""
        jobs = [
            Job(0, 0.0, 64, 50.0),
            Job(1, 1.0, 1, 10.0),
        ]
        result = make_sim(jobs).run()
        first, second = result.jobs
        assert second.start >= first.completion

    def test_fcfs_no_backfill(self):
        """A huge head-of-queue job blocks a tiny one even if it would fit."""
        jobs = [
            Job(0, 0.0, 60, 50.0),  # running, leaves 4 free
            Job(1, 1.0, 10, 10.0),  # blocked head (needs 10 > 4)
            Job(2, 2.0, 2, 10.0),  # would fit in the 4 free, must still wait
        ]
        result = make_sim(jobs).run()
        by_id = {j.job_id: j for j in result.jobs}
        assert by_id[2].start >= by_id[0].completion

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError):
            make_sim([Job(0, 0.0, 65, 10.0)])

    @pytest.mark.parametrize(
        "second_arrival",
        [100.0, 1.0],
        ids=["apart-in-time", "overlapping"],
    )
    def test_duplicate_job_id_rejected(self, second_arrival):
        """Ids key the pattern seeds and the network flows, so a repeat is
        refused up front -- whether or not the two jobs would overlap."""
        jobs = [Job(7, 0.0, 4, 10.0), Job(7, second_arrival, 4, 10.0)]
        with pytest.raises(ValueError, match="job id 7"):
            make_sim(jobs, mesh=Mesh(4, 4), pattern="random")

    def test_allocator_returning_duplicate_nodes_is_refused(self):
        """``Machine.allocate`` is the one duplicate check on a job start."""

        class Repeating(Allocator):
            name = "repeating"

            def allocate(self, request, machine):
                node = int(machine.free_nodes()[0])
                return Allocation(request.job_id, [node] * request.size)

        sim = Simulation(Mesh(4, 4), Repeating(), get_pattern("ring"),
                         [Job(0, 0.0, 3, 10.0)])
        with pytest.raises(AllocationError, match="duplicate"):
            sim.run()

    def test_makespan_is_last_completion(self):
        jobs = [Job(i, float(i), 4, 20.0) for i in range(5)]
        result = make_sim(jobs).run()
        assert result.makespan == pytest.approx(
            max(j.completion for j in result.jobs)
        )


class TestDeterminismAndMetrics:
    def test_deterministic_repeat(self):
        jobs = [Job(i, 5.0 * i, 4 + (i % 5), 30.0) for i in range(20)]
        r1 = make_sim(jobs, seed=3, pattern="random").run()
        r2 = make_sim(jobs, seed=3, pattern="random").run()
        for a, b in zip(r1.jobs, r2.jobs):
            assert a.completion == b.completion

    def test_different_pattern_seeds_differ(self):
        jobs = [Job(i, 2.0 * i, 6, 50.0) for i in range(12)]
        r1 = make_sim(jobs, seed=3, pattern="random").run()
        r2 = make_sim(jobs, seed=4, pattern="random").run()
        assert any(
            a.completion != b.completion for a, b in zip(r1.jobs, r2.jobs)
        )

    def test_per_job_metrics_recorded(self):
        jobs = [Job(0, 0.0, 9, 25.0)]
        result = make_sim(jobs).run()
        job = result.jobs[0]
        assert job.pairwise_hops > 0
        assert job.message_hops > 0
        assert job.n_components >= 1
        assert job.quota == 25

    def test_summary_aggregates(self):
        jobs = [Job(i, 10.0 * i, 4, 20.0) for i in range(6)]
        summary = summarize(make_sim(jobs).run())
        assert summary.n_jobs == 6
        assert summary.mean_response > 0
        assert 0 <= summary.fraction_contiguous <= 1
        assert summary.mean_components >= 1
        assert summary.mean_stretch >= 1.0 - 1e-9


class TestConservation:
    @given(
        n_jobs=st.integers(1, 25),
        seed=st.integers(0, 500),
        allocator=st.sampled_from(["hilbert+bf", "s-curve", "mc1x1", "gen-alg"]),
        pattern=st.sampled_from(["all-to-all", "n-body", "ring"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_every_job_completes_in_order_constraints(
        self, n_jobs, seed, allocator, pattern
    ):
        """All jobs complete; start >= arrival; completion > start; FCFS
        start order follows arrival order."""
        rng = np.random.default_rng(seed)
        jobs = [
            Job(
                i,
                float(rng.integers(0, 200)),
                int(rng.integers(1, 20)),
                float(rng.integers(1, 60)),
            )
            for i in range(n_jobs)
        ]
        result = make_sim(sorted(jobs, key=lambda j: j.arrival),
                          allocator=allocator, pattern=pattern, seed=seed).run()
        assert len(result.jobs) == n_jobs
        for job in result.jobs:
            assert job.start >= job.arrival - 1e-9
            assert job.completion > job.start - 1e-9
        # FCFS: starts are monotone in arrival order (stable by job id).
        ordered = sorted(result.jobs, key=lambda j: (j.arrival, j.job_id))
        starts = [j.start for j in ordered]
        assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))

    def test_duration_at_least_quota_over_max_rate(self):
        """No job finishes faster than its quota at the issue rate."""
        jobs = [Job(i, 0.0, 4, 30.0) for i in range(4)]
        result = make_sim(jobs).run()
        for job in result.jobs:
            assert job.duration >= job.quota / 1.0 - 1e-6


class TestArrivalTolerance:
    """Regression: arrival batching uses a *relative* time tolerance.

    Late in a long trace the spacing between representable floats dwarfs
    the old absolute ``1e-9`` epsilon, so arrivals that are equal for
    every practical purpose (within a relative 1e-9 of the event time)
    were split into separate events -- and diverged from the identical
    workload expressed at small absolute times.
    """

    def test_coincident_arrivals_batch_at_large_times(self):
        big = 1e9  # tolerance here is 1e-9 * 1e9 = 1 second
        jobs = [
            Job(0, big, 4, 10.0),
            Job(1, big + 0.5, 4, 10.0),  # within relative tol, >> 1e-9
        ]
        for engine in ENGINES:
            result = run_engine(make_sim(jobs), engine)
            by_id = {j.job_id: j for j in result.jobs}
            # One event: both jobs start together at the first arrival.
            assert by_id[0].start == big
            assert by_id[1].start == big

    def test_distinct_arrivals_stay_separate_at_small_times(self):
        jobs = [
            Job(0, 0.0, 4, 10.0),
            Job(1, 1e-3, 4, 10.0),  # far outside tol = 1e-9 near t=0
        ]
        for engine in ENGINES:
            result = run_engine(make_sim(jobs), engine)
            by_id = {j.job_id: j for j in result.jobs}
            assert by_id[0].start == 0.0
            assert by_id[1].start == 1e-3



class _RecordingAllocator(Allocator):
    """Delegates to a registry allocator and keeps each job's nodes."""

    def __init__(self, name):
        self.inner = make_allocator(name)
        self.name = self.inner.name
        self.nodes = {}

    def allocate(self, request, machine):
        allocation = self.inner.allocate(request, machine)
        if allocation is not None:
            self.nodes[request.job_id] = allocation.nodes
        return allocation


class TestPairwiseHopsRecord:
    """``JobResult.pairwise_hops`` is ``average_pairwise_hops`` bit for bit,
    also where the all-pairs census mean is reused for it."""

    @pytest.mark.parametrize(
        "mesh, allocator",
        [
            pytest.param(Mesh(8, 8), "mc1x1", id="mesh"),
            pytest.param(Mesh(8, 8, torus=True), "hilbert+bf", id="torus"),
            pytest.param(FatTree(4), "rack-aware", id="fattree"),
        ],
    )
    @pytest.mark.parametrize("pattern", ["all-to-all", "all-to-all-broadcast"])
    def test_matches_average_pairwise_hops(self, mesh, allocator, pattern):
        rng = np.random.default_rng(7)
        jobs = [
            Job(i, float(i), int(rng.integers(1, mesh.n_nodes // 2 + 1)), 20.0)
            for i in range(30)
        ]
        recorder = _RecordingAllocator(allocator)
        result = Simulation(mesh, recorder, get_pattern(pattern), jobs).run()
        assert len(result.jobs) == len(jobs)
        assert any(j.size > 2 for j in result.jobs)
        for job in result.jobs:
            nodes = recorder.nodes[job.job_id]
            assert job.pairwise_hops == average_pairwise_hops(mesh, nodes)
