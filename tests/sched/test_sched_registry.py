"""Tests for repro.sched.registry: disciplines and priority policies."""

import pytest
from oracles.loop_engine import ENGINES, run_engine

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.registry import (
    DRRQueue,
    EasyQueue,
    FCFSQueue,
    WFQQueue,
    apply_priority,
    class_weight,
    make_discipline,
    scheduler_names,
    validate_priority,
    validate_scheduler,
)
from repro.sched.simulator import Simulation


def no_reserve(head):
    raise AssertionError("only EASY asks for a reservation")


def run_sim(jobs, scheduler, engine="vector"):
    sim = Simulation(
        Mesh(8, 8),
        make_allocator("hilbert+bf"),
        get_pattern("all-to-all"),
        jobs,
        seed=7,
        scheduler=scheduler,
    )
    return run_engine(sim, engine)


class TestRegistry:
    def test_scheduler_names(self):
        assert scheduler_names() == ("fcfs", "easy", "wfq", "drr")

    def test_validate_known(self):
        for name in scheduler_names():
            assert validate_scheduler(name) == name

    def test_validate_unknown_names_every_discipline(self):
        with pytest.raises(ValueError) as err:
            validate_scheduler("sjf")
        for name in scheduler_names():
            assert repr(name) in str(err.value)
        assert "'sjf'" in str(err.value)

    def test_make_discipline(self):
        assert type(make_discipline("fcfs", [])) is FCFSQueue
        assert type(make_discipline("easy", [])) is EasyQueue
        assert type(make_discipline("wfq", [])) is WFQQueue
        assert type(make_discipline("drr", [])) is DRRQueue

    @pytest.mark.parametrize("name", scheduler_names())
    def test_every_discipline_starts_through_one_signature(self, name):
        queue = make_discipline(name, [Job(0, 0.0, 1, 1.0)])
        queue.submit(Job(0, 0.0, 1, 1.0))
        assert queue.start_jobs(lambda j: True, 0.0, no_reserve) is True
        assert not queue

    def test_simulation_error_derived_from_registry(self):
        """Satellite: the Simulation validation message names wfq/drr."""
        with pytest.raises(ValueError, match="'wfq'"):
            run_sim([], "bogus")

    def test_class_weight_linear(self):
        assert class_weight(0) == 1.0
        assert class_weight(3) == 4.0


class TestPriorityPolicies:
    def test_validate_accepts_none_and_good_forms(self):
        assert validate_priority(None) is None
        assert validate_priority("user:3") == "user:3"
        assert validate_priority("rr:1") == "rr:1"

    @pytest.mark.parametrize(
        "bad", ["user", "user:", "user:x", "user:0", "rr:-2", "lifo:3", "3"]
    )
    def test_validate_rejects_bad_forms(self, bad):
        with pytest.raises(ValueError):
            validate_priority(bad)

    def test_apply_user_policy(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=u) for i, u in enumerate([0, 1, 4, -1])]
        classes = [j.priority_class for j in apply_priority(jobs, "user:3")]
        # Known tenants map onto user_id % k; the sentinel stays class 0.
        assert classes == [0, 1, 1, 0]

    def test_apply_rr_policy_ignores_tenancy(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=-1) for i in range(5)]
        classes = [j.priority_class for j in apply_priority(jobs, "rr:2")]
        assert classes == [0, 1, 0, 1, 0]

    def test_apply_none_is_identity(self):
        jobs = [Job(0, 0.0, 1, 1.0, priority_class=2)]
        assert apply_priority(jobs, None) == jobs


class TestWFQQueue:
    def test_weighted_tags_favor_higher_class(self):
        """Equal quotas: the heavier class finishes its virtual service
        first and is offered ahead of an earlier class-0 arrival."""
        queue = WFQQueue()
        first = Job(0, 0.0, 4, 10.0, priority_class=0)
        second = Job(1, 0.0, 4, 10.0, priority_class=3)
        queue.submit(first)
        queue.submit(second)
        assert queue.head() is second

    def test_single_class_is_fifo(self):
        queue = WFQQueue()
        jobs = [Job(i, 0.0, 2, 5.0) for i in range(4)]
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(lambda j: order.append(j) or True, 0.0, no_reserve)
        assert order == jobs

    def test_strict_head_blocking(self):
        """A head that cannot place blocks everything behind it."""
        queue = WFQQueue()
        blocked = Job(0, 0.0, 64, 10.0)
        small = Job(1, 0.0, 1, 10.0)
        queue.submit(blocked)
        queue.submit(small)
        started = queue.start_jobs(lambda j: j.size <= 1, 0.0, no_reserve)
        assert started is False
        assert len(queue) == 2

    def test_len_and_bool(self):
        queue = WFQQueue()
        assert not queue and len(queue) == 0
        queue.submit(Job(0, 0.0, 1, 1.0))
        assert queue and len(queue) == 1


class TestDRRQueue:
    def test_round_robin_interleaves_tenants(self):
        """Tenants with equal-quota backlogs are served one job per visit."""
        jobs = [Job(i, 0.0, 4, 10.0, user_id=i % 2) for i in range(6)]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(lambda j: order.append(j.job_id) or True, 0.0, no_reserve)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_quantum_covers_largest_quota(self):
        """The largest job starts on its tenant's first visit."""
        big = Job(0, 0.0, 60, 10.0, user_id=0)
        queue = DRRQueue([big])
        queue.submit(big)
        started = queue.start_jobs(lambda j: True, 0.0, no_reserve)
        assert started is True
        assert len(queue) == 0

    def test_blocked_tenant_forfeits_visit(self):
        jobs = [
            Job(0, 0.0, 64, 10.0, user_id=0),
            Job(1, 0.0, 1, 10.0, user_id=1),
        ]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(
            lambda j: j.size <= 1 and (order.append(j.job_id) or True), 0.0, no_reserve
        )
        # Tenant 0's head cannot place; tenant 1 still gets its visit.
        assert order == [1]
        assert len(queue) == 1

    def test_head_follows_cursor(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=i) for i in range(3)]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        assert queue.head() is jobs[0]


class FakeMachine:
    """``try_start`` over a free-processor count, recording every start."""

    def __init__(self, free):
        self.free = free
        self.started = []

    def try_start(self, job):
        if job.size > self.free:
            return False
        self.free -= job.size
        self.started.append(job.job_id)
        return True


class TestEasyQueue:
    """EASY's backfill walk against a fake machine and reservation."""

    def _queue(self, jobs):
        queue = EasyQueue()
        for job in jobs:
            queue.submit(job)
        return queue

    def test_job_inside_the_window_is_backfilled(self):
        # Head needs 10 of 4 free processors; the reservation says it
        # starts at t = 50 with no spare.  A 20 s job at t = 10 ends by 30.
        head, short = Job(0, 0.0, 10, 1.0), Job(1, 0.0, 2, 20.0)
        machine = FakeMachine(4)
        queue = self._queue([head, short])
        assert queue.start_jobs(machine.try_start, 10.0, lambda h: (50.0, 0))
        assert machine.started == [1]
        assert queue.head() is head and len(queue) == 1

    def test_job_ending_at_the_shadow_time_is_backfilled(self):
        head, edge = Job(0, 0.0, 10, 1.0), Job(1, 0.0, 2, 40.0)
        machine = FakeMachine(4)
        queue = self._queue([head, edge])
        assert queue.start_jobs(machine.try_start, 10.0, lambda h: (50.0, 0))
        assert machine.started == [1]

    def test_long_job_within_spare_is_backfilled(self):
        head, long = Job(0, 0.0, 10, 1.0), Job(1, 0.0, 2, 500.0)
        machine = FakeMachine(4)
        queue = self._queue([head, long])
        assert queue.start_jobs(machine.try_start, 10.0, lambda h: (50.0, 2))
        assert machine.started == [1]

    def test_long_job_past_the_shadow_time_waits(self):
        head, long = Job(0, 0.0, 10, 1.0), Job(1, 0.0, 3, 500.0)
        machine = FakeMachine(4)
        queue = self._queue([head, long])
        assert not queue.start_jobs(machine.try_start, 10.0, lambda h: (50.0, 2))
        assert machine.started == []
        assert len(queue) == 2

    def test_reservation_is_asked_again_after_each_backfill(self):
        """The second candidate sees the reservation the first one left:
        after job 1 starts the shadow moves to t = 15, so job 2 (which
        fitted the first window) no longer does."""
        head = Job(0, 0.0, 10, 1.0)
        first, second = Job(1, 0.0, 1, 20.0), Job(2, 0.0, 1, 20.0)
        machine = FakeMachine(4)
        asked = []
        windows = iter([(50.0, 0), (15.0, 0)])

        def reserve(job):
            asked.append(job.job_id)
            return next(windows)

        queue = self._queue([head, first, second])
        assert queue.start_jobs(machine.try_start, 10.0, reserve)
        assert machine.started == [1]
        assert asked == [0, 0]  # always for the blocked head

    def test_last_backfill_asks_for_no_reservation(self):
        """A backfill re-asks the reservation only for a candidate that
        follows it: two backfills behind the head ask twice, not three
        times."""
        head = Job(0, 0.0, 10, 1.0)
        rest = [Job(1, 0.0, 1, 5.0), Job(2, 0.0, 1, 5.0)]
        machine = FakeMachine(4)
        calls = 0

        def reserve(job):
            nonlocal calls
            calls += 1
            return 50.0, 0

        queue = self._queue([head, *rest])
        assert queue.start_jobs(machine.try_start, 0.0, reserve)
        assert machine.started == [1, 2]
        assert calls == 2

    def test_backfill_keeps_queue_order(self):
        head = Job(0, 0.0, 10, 1.0)
        rest = [Job(i, 0.0, 1, 5.0) for i in (3, 1, 2)]
        machine = FakeMachine(4)
        queue = self._queue([head, *rest])
        queue.start_jobs(machine.try_start, 0.0, lambda h: (50.0, 0))
        assert machine.started == [3, 1, 2]

    def test_no_backfill_once_the_head_has_started(self):
        """When the FCFS pass empties the queue, no reservation is asked."""
        jobs = [Job(i, 0.0, 1, 5.0) for i in range(3)]
        machine = FakeMachine(4)
        queue = self._queue(jobs)
        assert queue.start_jobs(machine.try_start, 0.0, no_reserve)
        assert machine.started == [0, 1, 2]
        assert not queue

    def test_lone_blocked_head_asks_for_no_reservation(self):
        """With no job behind the blocked head nothing can backfill, so
        the (costly) reservation is not asked."""
        head = Job(0, 0.0, 10, 1.0)
        machine = FakeMachine(4)
        queue = self._queue([head])
        assert not queue.start_jobs(machine.try_start, 0.0, no_reserve)
        assert machine.started == [] and queue.head() is head

    def test_reservation_is_for_the_new_blocked_head(self):
        """The FCFS pass starts the old head first; backfill then reserves
        for the job that blocks now."""
        jobs = [Job(0, 0.0, 2, 1.0), Job(1, 0.0, 10, 1.0), Job(2, 0.0, 1, 5.0)]
        machine = FakeMachine(4)
        asked = []

        def reserve(job):
            asked.append(job.job_id)
            return 50.0, 0

        queue = self._queue(jobs)
        assert queue.start_jobs(machine.try_start, 0.0, reserve)
        assert machine.started == [0, 2]
        assert asked == [1]  # job 2 was the last candidate: no re-ask


class TestDegenerateEquivalence:
    """With one class (wfq) or one tenant (drr) the fair disciplines
    collapse to strict FCFS -- bit-identical schedules, not just similar.
    """

    def _trace(self, user_id=-1):
        return [
            Job(i, float(3 * i), 4 + 7 * (i % 5), 15.0, user_id=user_id)
            for i in range(24)
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wfq_single_class_matches_fcfs(self, engine):
        jobs = self._trace()
        assert all(j.priority_class == 0 for j in jobs)
        fcfs = run_sim(jobs, "fcfs", engine)
        wfq = run_sim(jobs, "wfq", engine)
        assert wfq.jobs == fcfs.jobs
        assert wfq.makespan == fcfs.makespan

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drr_single_tenant_matches_fcfs(self, engine):
        jobs = self._trace(user_id=5)
        fcfs = run_sim(jobs, "fcfs", engine)
        drr = run_sim(jobs, "drr", engine)
        assert drr.jobs == fcfs.jobs
        assert drr.makespan == fcfs.makespan

    def test_wfq_reorders_with_classes(self):
        """Sanity: with real classes wfq is *not* fcfs (the subsystem
        actually changes schedules, not just labels)."""
        jobs = apply_priority(
            [Job(i, float(i), 16, 30.0, user_id=i) for i in range(16)], "user:3"
        )
        fcfs = run_sim(jobs, "fcfs")
        wfq = run_sim(jobs, "wfq")
        assert wfq.jobs != fcfs.jobs
