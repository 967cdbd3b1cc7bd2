"""Held-processor accounting: JobResult.held and mean_utilization.

Regression for the fragmentation-blind utilization bug: page and submesh
allocators hold more processors than the job requested, and
``mean_utilization`` promises those count as busy -- but it used to sum
``j.size``, silently under-reporting exactly the waste the paper's
utilization argument is about.  Runs now record the held count on each
:class:`JobResult`, and the artifact codec round-trips it (only writing a
column when some job actually held padding, so unaffected artifacts keep
their pre-``held`` bytes).
"""

import pytest

from repro.core.paging import PagingAllocator
from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.patterns.base import get_pattern
from repro.runner.cache import pack_job_results, unpack_job_results
from repro.sched.job import Job, JobResult
from repro.sched.simulator import Simulation, SimulationResult


def run(jobs, allocator, mesh=None, **kwargs):
    mesh = mesh or Mesh(8, 8)
    return Simulation(
        mesh, allocator, get_pattern("ring"), jobs, **kwargs
    ).run()


class TestHeldUtilization:
    def test_paged_allocation_counts_padding_as_busy(self):
        # 2x2 pages: a 3-processor job holds a full page of 4.
        alloc = PagingAllocator("hilbert", "best-fit", page_size=1)
        result = run([Job(0, 0.0, 3, 10.0)], alloc)
        (job,) = result.jobs
        assert job.size == 3
        assert job.held == 4
        # Single job busy for the whole makespan: utilization is exactly
        # held / n_nodes.  The pre-fix value was size / n_nodes = 3/64.
        assert result.mean_utilization() == pytest.approx(4 / 64)

    def test_unpadded_allocation_held_equals_size(self):
        result = run([Job(0, 0.0, 3, 10.0)], make_allocator("hilbert+bf"))
        (job,) = result.jobs
        assert job.held == job.size == 3
        assert result.mean_utilization() == pytest.approx(3 / 64)

    def test_legacy_records_fall_back_to_size(self):
        # held=0 is the sentinel of records predating the field; the
        # utilization sweep must treat them as "assume size".
        legacy = JobResult(
            job_id=0,
            arrival=0.0,
            start=0.0,
            completion=10.0,
            size=8,
            quota=10,
            pairwise_hops=1.0,
            message_hops=1.0,
            n_components=1,
            message_pairs=8,
        )
        assert legacy.held == 0
        result = SimulationResult(
            allocator="x",
            pattern="ring",
            mesh_shape=(8, 8),
            load_factor=1.0,
            jobs=[legacy],
            makespan=10.0,
        )
        assert result.mean_utilization() == pytest.approx(8 / 64)


class TestHeldCodec:
    def _job(self, jid, size, held):
        return JobResult(
            job_id=jid,
            arrival=0.0,
            start=0.0,
            completion=5.0 + jid,
            size=size,
            quota=5,
            pairwise_hops=0.0,
            message_hops=0.0,
            n_components=1,
            message_pairs=0,
            held=held,
        )

    def test_padding_round_trips_through_pack(self):
        base = [Job(0, 0.0, 3, 5.0), Job(1, 0.0, 8, 5.0)]
        jobs = [self._job(0, 3, 4), self._job(1, 8, 8)]
        packed = pack_job_results(jobs)
        assert "held" in packed
        assert unpack_job_results(packed, base) == jobs

    def test_no_padding_writes_no_column(self):
        # held == size everywhere: the column is omitted (artifact bytes
        # match the pre-held format) and unpack rebuilds held from size.
        base = [Job(0, 0.0, 3, 5.0), Job(1, 0.0, 8, 5.0)]
        jobs = [self._job(0, 3, 3), self._job(1, 8, 8)]
        packed = pack_job_results(jobs)
        assert "held" not in packed
        assert unpack_job_results(packed, base) == jobs
