"""Scheduler invariants hold on every cell of the bundled campaigns.

:mod:`oracles.schedule` reads only each run's ``JobResult`` list, so it
checks the simulator from outside: no job starts before it arrives, held
processors never exceed the machine, and FCFS cells start jobs in
``(arrival, job_id)`` order.  ``smoke``, ``clos`` and ``fairness`` cover
all four schedulers, meshes and Clos fabrics, synthetic and SWF workloads.
"""

import pytest
from oracles.schedule import assert_schedule_invariants, peak_held

from repro.campaign import bundled_campaign_path, load_campaign, run_campaign
from repro.sched.job import JobResult


def _job(job_id, arrival, start, completion, held):
    return JobResult(
        job_id=job_id,
        arrival=arrival,
        start=start,
        completion=completion,
        size=held,
        quota=1.0,
        pairwise_hops=0.0,
        message_hops=0.0,
        n_components=1,
        message_pairs=0,
        held=held,
    )


class TestChecker:
    def test_back_to_back_jobs_share_processors(self):
        jobs = [_job(0, 0.0, 0.0, 5.0, 4), _job(1, 0.0, 5.0, 9.0, 4)]
        assert peak_held(jobs) == 4
        assert_schedule_invariants(jobs, n_nodes=4, scheduler="fcfs")

    def test_overlap_beyond_machine_fails(self):
        jobs = [_job(0, 0.0, 0.0, 5.0, 4), _job(1, 0.0, 4.0, 9.0, 4)]
        with pytest.raises(AssertionError, match="processors held"):
            assert_schedule_invariants(jobs, n_nodes=6, scheduler="easy")

    def test_start_before_arrival_fails(self):
        with pytest.raises(AssertionError, match="before it arrives"):
            assert_schedule_invariants([_job(0, 2.0, 1.0, 5.0, 1)], 4, "wfq")

    def test_fcfs_order_inversion_fails(self):
        jobs = [_job(0, 0.0, 3.0, 5.0, 1), _job(1, 1.0, 1.0, 2.0, 1)]
        assert_schedule_invariants(jobs, n_nodes=4, scheduler="easy")
        with pytest.raises(AssertionError, match="FCFS start order"):
            assert_schedule_invariants(jobs, n_nodes=4, scheduler="fcfs")


@pytest.mark.parametrize("name", ["smoke", "clos", "fairness"])
def test_bundled_campaign_schedules(name):
    run = run_campaign(load_campaign(bundled_campaign_path(name)))
    assert run.results
    schedulers = set()
    for cell in run.results:
        spec = cell.spec
        assert len(cell.jobs) == cell.summary.n_jobs
        assert_schedule_invariants(
            cell.jobs, spec.build_machine_topology().n_nodes, spec.scheduler
        )
        schedulers.add(spec.scheduler)
    assert "fcfs" in schedulers
