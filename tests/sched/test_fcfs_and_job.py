"""Tests for repro.sched.job and the registry's FCFSQueue."""

import pytest

from repro.sched.job import Job, JobResult
from repro.sched.registry import FCFSQueue


class TestJob:
    def test_quota_rounds_runtime(self):
        assert Job(0, 0.0, 4, 10.4).quota == 10
        assert Job(0, 0.0, 4, 10.6).quota == 11

    def test_quota_minimum_one(self):
        assert Job(0, 0.0, 4, 0.0).quota == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Job(0, 0.0, 0, 10.0)
        with pytest.raises(ValueError):
            Job(0, -1.0, 4, 10.0)
        with pytest.raises(ValueError):
            Job(0, 0.0, 4, -5.0)

    def test_frozen(self):
        job = Job(0, 0.0, 4, 10.0)
        with pytest.raises(AttributeError):
            job.size = 8


class TestJobResult:
    def test_derived_metrics(self):
        r = JobResult(
            job_id=1,
            arrival=10.0,
            start=15.0,
            completion=40.0,
            size=8,
            quota=20,
            pairwise_hops=2.0,
            message_hops=1.5,
            n_components=2,
        )
        assert r.response == 30.0
        assert r.wait == 5.0
        assert r.duration == 25.0
        assert not r.contiguous

    def test_contiguous(self):
        r = JobResult(1, 0, 0, 1, 1, 1, 0.0, 0.0, n_components=1)
        assert r.contiguous


def no_reserve(head):
    raise AssertionError("FCFS never asks for a reservation")


class TestFCFSQueue:
    def test_fifo_order(self):
        q = FCFSQueue()
        jobs = [Job(i, float(i), 1, 1.0) for i in range(3)]
        for j in jobs:
            q.submit(j)
        assert q.head() is jobs[0]
        order = []
        assert q.start_jobs(lambda j: order.append(j) or True, 0.0, no_reserve)
        assert order == jobs
        assert not q

    def test_empty(self):
        q = FCFSQueue()
        assert q.head() is None
        assert not q
        assert len(q) == 0
        assert q.start_jobs(lambda j: True, 0.0, no_reserve) is False

    def test_head_blocks_every_later_job(self):
        """A head that cannot place blocks the small jobs behind it."""
        q = FCFSQueue()
        jobs = [Job(0, 0.0, 1, 1.0), Job(1, 0.0, 64, 1.0), Job(2, 0.0, 1, 1.0)]
        for j in jobs:
            q.submit(j)
        offered = []

        def try_start(job):
            offered.append(job.job_id)
            return job.size <= 1

        assert q.start_jobs(try_start, 0.0, no_reserve) is True
        assert offered == [0, 1]  # job 2 is never offered
        assert q.head() is jobs[1]
        assert len(q) == 2
