"""Public-API surface tests: everything README documents must import."""

import pytest


class TestTopLevelExports:
    def test_star_imports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet(self):
        """The README quickstart must run verbatim."""
        from repro import Machine, Mesh, Request, make_allocator
        from repro.core.metrics import average_pairwise_hops, is_contiguous

        mesh = Mesh(16, 16)
        machine = Machine(mesh)
        allocator = make_allocator("hilbert+bf")
        alloc = allocator.allocate(Request(size=30, job_id=0), machine)
        machine.allocate(alloc.held, job_id=0)
        assert average_pairwise_hops(mesh, alloc.nodes) > 0
        assert isinstance(is_contiguous(mesh, alloc.nodes), bool)

    def test_subpackage_all_exports(self):
        import repro.analysis
        import repro.campaign
        import repro.core
        import repro.mesh
        import repro.network
        import repro.patterns
        import repro.runner
        import repro.sched
        import repro.trace
        import repro.viz

        for module in (
            repro.core,
            repro.mesh,
            repro.network,
            repro.patterns,
            repro.sched,
            repro.trace,
            repro.analysis,
            repro.viz,
            repro.runner,
            repro.campaign,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module, name)


class TestStatsEdgeCases:
    def test_summarize_empty_run(self):
        import math

        from repro.sched.simulator import SimulationResult
        from repro.sched.stats import summarize

        empty = SimulationResult(
            allocator="x", pattern="y", mesh_shape=(4, 4), load_factor=1.0
        )
        summary = summarize(empty)
        assert summary.n_jobs == 0
        assert math.isnan(summary.mean_response)

    def test_run_summary_row_keys(self):
        from repro.sched.simulator import SimulationResult
        from repro.sched.stats import summarize

        result = SimulationResult(
            allocator="x", pattern="y", mesh_shape=(4, 4), load_factor=0.5
        )
        row = summarize(result).row()
        assert row["mesh"] == "4x4"
        assert row["load"] == 0.5
        assert "mean_response" in row and "pct_contiguous" in row


class TestSimulationWithPagedAllocator:
    def test_page_fragmentation_blocks_in_simulation(self):
        """A paging allocator with s=1 exercises the allocation-refused
        branch of the FCFS loop (free processors but no free page)."""
        from repro.core.registry import make_allocator
        from repro.mesh.topology import Mesh
        from repro.patterns.base import get_pattern
        from repro.sched.job import Job
        from repro.sched.simulator import Simulation

        jobs = [
            Job(0, 0.0, 61, 50.0),  # 61 procs -> 16 pages held (64 procs)
            Job(1, 1.0, 4, 10.0),  # must wait: zero free pages remain
        ]
        sim = Simulation(
            Mesh(8, 8),
            make_allocator("hilbert+bf", page_size=1),
            get_pattern("ring"),
            jobs,
        )
        result = sim.run()
        by_id = {j.job_id: j for j in result.jobs}
        assert by_id[1].start >= by_id[0].completion
