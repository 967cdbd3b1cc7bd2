"""Tests for the EASY backfilling scheduler extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.loop_engine import ENGINES, run_engine

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.network.fluid import NetworkParams
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.simulator import Simulation


def run(jobs, scheduler, mesh=None, allocator="hilbert+bf", pattern="ring"):
    mesh = mesh or Mesh(8, 8)
    return Simulation(
        mesh,
        make_allocator(allocator),
        get_pattern(pattern),
        jobs,
        scheduler=scheduler,
    ).run()


class TestEasyBackfill:
    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run([], scheduler="sjf")

    def test_result_records_scheduler(self):
        result = run([Job(0, 0.0, 4, 10.0)], scheduler="easy")
        assert result.scheduler == "easy"
        assert run([Job(0, 0.0, 4, 10.0)], scheduler="fcfs").scheduler == "fcfs"

    def test_backfill_jumps_blocked_head(self):
        """FCFS makes the tiny job wait behind a huge head; EASY does not.

        Job 0 occupies 60/64 nodes.  Job 1 (head, 64 nodes) blocks.
        Job 2 (2 nodes, short) fits in the hole and -- under EASY --
        cannot delay job 1's reservation, so it starts immediately.
        """
        jobs = [
            Job(0, 0.0, 60, 100.0),
            Job(1, 1.0, 64, 10.0),
            Job(2, 2.0, 2, 5.0),
        ]
        fcfs = {j.job_id: j for j in run(jobs, "fcfs").jobs}
        easy = {j.job_id: j for j in run(jobs, "easy").jobs}
        assert fcfs[2].start >= fcfs[1].start  # strict FCFS order
        assert easy[2].start < easy[1].start  # backfilled
        assert easy[2].start == pytest.approx(2.0)

    def test_backfill_never_starves_head_with_spare_nodes(self):
        """A long backfill job is admitted only via spare processors."""
        jobs = [
            Job(0, 0.0, 60, 50.0),
            Job(1, 1.0, 62, 10.0),  # head: needs 62, reservation spare = 2
            Job(2, 2.0, 2, 10_000.0),  # long but fits the spare
            Job(3, 3.0, 4, 1.0),  # short but > spare and > window: waits
        ]
        easy = {j.job_id: j for j in run(jobs, "easy").jobs}
        assert easy[2].start == pytest.approx(2.0)  # spare backfill
        assert easy[3].start >= easy[1].start  # would delay the head

    def test_easy_equals_fcfs_without_blocking(self):
        """With no head blocking the two schedulers are identical."""
        jobs = [Job(i, 50.0 * i, 4, 10.0) for i in range(6)]
        fcfs = run(jobs, "fcfs")
        easy = run(jobs, "easy")
        for a, b in zip(fcfs.jobs, easy.jobs):
            assert a.start == pytest.approx(b.start)
            assert a.completion == pytest.approx(b.completion)

    def test_easy_improves_mean_response_under_load(self):
        """On a congested random workload EASY should not hurt on average."""
        rng = np.random.default_rng(4)
        jobs = [
            Job(
                i,
                float(rng.integers(0, 300)),
                int(rng.integers(1, 50)),
                float(rng.integers(5, 80)),
            )
            for i in range(60)
        ]
        jobs.sort(key=lambda j: j.arrival)
        jobs = [
            Job(i, j.arrival, j.size, j.runtime) for i, j in enumerate(jobs)
        ]
        fcfs = run(jobs, "fcfs").mean_response()
        easy = run(jobs, "easy").mean_response()
        assert easy <= fcfs * 1.02  # backfilling helps (or ties) on average

    def test_all_jobs_complete_under_easy(self):
        rng = np.random.default_rng(7)
        jobs = [
            Job(i, float(10 * i), int(rng.integers(1, 40)), 30.0)
            for i in range(40)
        ]
        result = run(jobs, "easy", pattern="all-to-all")
        assert len(result.jobs) == 40
        for job in result.jobs:
            assert job.completion > job.start >= job.arrival - 1e-9


class TestHeadReservationFreshRates:
    """Regression: the shadow window must use fresh rates.

    A job started earlier in the *same* scheduling event still carries
    rate 0.0 until the end-of-event refresh.  ``head_reservation`` used to
    predict its completion as ``inf`` from that stale zero, which made the
    shadow window infinite and admitted arbitrarily long backfills --
    delaying the head by orders of magnitude.
    """

    def test_same_event_start_does_not_open_infinite_window(self):
        # All three arrive at t=0 in one event: A starts (60/64 nodes),
        # B (64 nodes) blocks as head, then backfill evaluates C.  C's
        # quota is enormous; it fits neither the (finite) shadow window
        # nor the zero spare, so it must wait behind B.
        jobs = [
            Job(0, 0.0, 60, 100.0),  # A: fills 60/64 within the same event
            Job(1, 0.0, 64, 10.0),  # B: blocked head
            Job(2, 0.0, 2, 10_000.0),  # C: tiny but with a huge quota
        ]
        fcfs = {j.job_id: j for j in run(jobs, "fcfs").jobs}
        for engine in ENGINES:
            sim = Simulation(
                Mesh(8, 8),
                make_allocator("hilbert+bf"),
                get_pattern("ring"),
                jobs,
                scheduler="easy",
            )
            result = run_engine(sim, engine)
            easy = {j.job_id: j for j in result.jobs}
            # The head keeps its FCFS start; C never jumps it.  (Pre-fix,
            # C backfilled at t=0 and pushed B's start past t=13000.)
            assert easy[1].start <= fcfs[1].start + 1e-9
            assert easy[2].start >= easy[1].start

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),  # arrival
                st.integers(min_value=1, max_value=64),  # size
                st.integers(min_value=1, max_value=40),  # runtime
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_first_blocked_head_never_worse_than_fcfs(self, raw):
        """EASY's head protection is strict under exact runtime estimates.

        With ``hop_latency=0`` every rate is exactly 1.0, so durations
        equal quotas and completion predictions are exact.  Up to the
        first blocking event the two schedules are identical, so the
        first job FCFS delays must start under EASY no later than under
        FCFS -- backfills admitted while it heads the queue cannot push
        it past its (exact) reservation.
        """
        jobs = [
            Job(i, float(arr), size, float(rt))
            for i, (arr, size, rt) in enumerate(sorted(raw))
        ]
        params = NetworkParams(hop_latency=0.0)

        def simulate(scheduler):
            return Simulation(
                Mesh(8, 8),
                make_allocator("hilbert+bf"),
                get_pattern("ring"),
                jobs,
                params=params,
                scheduler=scheduler,
            ).run()

        fcfs = {j.job_id: j for j in simulate("fcfs").jobs}
        blocked = [j for j in jobs if fcfs[j.job_id].wait > 1e-9]
        if not blocked:
            return  # nothing ever queued; schedules are identical
        first = blocked[0].job_id
        easy = {j.job_id: j for j in simulate("easy").jobs}
        assert easy[first].start <= fcfs[first].start + 1e-9
