"""Tests for repro.core.hybrid: the pattern-dispatching allocator."""

import numpy as np
import pytest

from repro.core.base import Request
from repro.core.hybrid import HybridAllocator, default_rules
from repro.core.mc import MCAllocator
from repro.core.paging import PagingAllocator
from repro.core.registry import make_allocator


class TestDispatch:
    def test_default_rules_follow_paper(self):
        hybrid = HybridAllocator()
        assert isinstance(hybrid.sub_allocator_for("all-to-all"), MCAllocator)
        nbody = hybrid.sub_allocator_for("n-body")
        assert isinstance(nbody, PagingAllocator)
        assert nbody.curve_name == "hilbert"

    def test_fallback_for_unknown_hint(self):
        hybrid = HybridAllocator()
        assert hybrid.sub_allocator_for("butterfly") is hybrid.fallback
        assert hybrid.sub_allocator_for(None) is hybrid.fallback

    def test_allocation_matches_sub_allocator(self, machine16):
        hybrid = HybridAllocator()
        got = hybrid.allocate(
            Request(size=12, job_id=1, pattern_hint="n-body"), machine16
        )
        direct = make_allocator("hilbert+bf").allocate(
            Request(size=12, job_id=1), machine16
        )
        assert got.nodes.tolist() == direct.nodes.tolist()

    def test_custom_rules(self, machine16):
        hybrid = HybridAllocator(
            rules={"ring": make_allocator("s-curve")},
            fallback=make_allocator("mc1x1"),
        )
        ring = hybrid.allocate(Request(size=5, pattern_hint="ring"), machine16)
        s_curve = make_allocator("s-curve").allocate(Request(size=5), machine16)
        assert ring.nodes.tolist() == s_curve.nodes.tolist()

    def test_infeasible_returns_none(self, machine8):
        machine8.allocate(range(60), job_id=9)
        assert (
            HybridAllocator().allocate(Request(size=10, job_id=1), machine8) is None
        )

    def test_registry_constructs_hybrid(self):
        assert isinstance(make_allocator("hybrid"), HybridAllocator)

    def test_default_rules_cover_paper_patterns(self):
        rules = default_rules()
        for pattern in ("all-to-all", "n-body", "random", "ring"):
            assert pattern in rules


class TestMixedWorkloadSimulation:
    def test_per_job_patterns(self):
        """The simulator dispatches patterns per job and labels the run."""
        from repro.mesh.topology import Mesh
        from repro.patterns.base import get_pattern
        from repro.sched.job import Job
        from repro.sched.simulator import Simulation

        a2a = get_pattern("all-to-all")
        ring = get_pattern("ring")

        def selector(job):
            return a2a if job.job_id % 2 == 0 else ring

        jobs = [Job(i, 10.0 * i, 6, 20.0) for i in range(8)]
        sim = Simulation(
            Mesh(8, 8),
            make_allocator("hybrid"),
            selector,
            jobs,
            pattern_label="mixed-demo",
        )
        result = sim.run()
        assert result.pattern == "mixed-demo"
        assert len(result.jobs) == 8
        # all-to-all jobs send more traffic per cycle: their message
        # distance differs from ring jobs on the same allocation sizes.
        assert len({round(j.message_hops, 3) for j in result.jobs}) > 1
