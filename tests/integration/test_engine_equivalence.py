"""The vectorised engine is bit-identical to the frozen loop engine.

``Simulation.run`` replaced the per-event Python loop with array state,
closed-form traffic profiles and an incremental fluid network; the test
oracle :mod:`oracles.loop_engine` (``tests/oracles/loop_engine.py``)
preserves the original implementation.  Everything the simulator reports -- start,
completion, the hop metrics, component counts, makespan -- must agree
*exactly* (``==``, not approx) across mesh shape, torus wrap, pattern,
allocator and scheduler, or cached artifacts produced before and after
the refactor would diverge.
"""

import pytest
from oracles.loop_engine import run_engine

from repro.core.registry import make_allocator
from repro.mesh.clos import Dragonfly, FatTree, LeafSpine
from repro.mesh.topology import Mesh
from repro.network import fluid
from repro.network.fluid import NetworkParams, max_min_rates
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.registry import apply_priority
from repro.sched.simulator import Simulation
from repro.trace.synthetic import sdsc_paragon_trace


def _jobs_for(mesh, n_jobs=60, seed=3, runtime_scale=0.02):
    # Tenant-bearing jobs with spread priority classes, so the wfq and
    # drr combos exercise real multi-class/multi-tenant schedules (and
    # fcfs/easy prove they carry the fields through untouched).
    trace = sdsc_paragon_trace(
        seed=seed, n_jobs=n_jobs, runtime_scale=runtime_scale, n_users=5
    )
    return apply_priority(
        [j for j in trace if j.size <= mesh.n_nodes], "user:3"
    )


def _run(mesh, allocator, pattern, scheduler, engine, jobs, seed=7, params=None):
    sim = Simulation(
        mesh,
        make_allocator(allocator),
        get_pattern(pattern),
        jobs,
        params,
        seed=seed,
        scheduler=scheduler,
    )
    return run_engine(sim, engine)


COMBOS = [
    pytest.param(Mesh(8, 8), "hilbert+bf", "all-to-all", "fcfs", id="2d-a2a-fcfs"),
    pytest.param(Mesh(8, 8), "hilbert+bf", "all-to-all", "easy", id="2d-a2a-easy"),
    pytest.param(
        Mesh(8, 8, torus=True), "s-curve+ff", "ring", "fcfs", id="2d-torus-ring"
    ),
    pytest.param(Mesh(4, 4, 4), "hilbert+bf", "n-body", "easy", id="3d-nbody-easy"),
    pytest.param(
        Mesh(2, 4, 8, torus=True),
        "row-major+ff",
        "all-to-all-broadcast",
        "fcfs",
        id="3d-torus-bcast",
    ),
    pytest.param(Mesh(16, 16), "contiguous", "random", "fcfs", id="2d-contig-random"),
    pytest.param(Mesh(8, 8), "gen-alg", "cplant-test-suite", "fcfs", id="2d-cplant"),
    pytest.param(Mesh(8, 8), "mc", "all-to-all", "easy", id="2d-mc-easy"),
    # The fair queueing disciplines share the same policy object between
    # engines, so structural bit-identity must hold for them too.
    pytest.param(Mesh(8, 8), "hilbert+bf", "all-to-all", "wfq", id="2d-a2a-wfq"),
    pytest.param(Mesh(8, 8), "mc", "all-to-all", "drr", id="2d-mc-drr"),
    pytest.param(
        Mesh(4, 4, 4), "hilbert+bf", "n-body", "drr", id="3d-nbody-drr"
    ),
    # Switched fabrics route through GraphLinkSpace in both engines.
    pytest.param(FatTree(4), "rack-aware", "all-to-all", "fcfs", id="fattree-rack"),
    pytest.param(FatTree(4), "rack-aware", "ring", "wfq", id="fattree-wfq"),
    pytest.param(LeafSpine(6, 3), "pod-local", "ring", "easy", id="leafspine-pod"),
    pytest.param(
        Dragonfly(5, 3, 2), "random", "n-body", "fcfs", id="dragonfly-random"
    ),
]


#: Links of 2 flits/s: the uncongested gate fails on most rate refreshes,
#: so these runs reach the waterfill and the congested fixed point, which
#: the default capacity never does.
CONGESTED = NetworkParams(link_capacity=2.0)

CONGESTED_COMBOS = [
    pytest.param(Mesh(8, 8), "hilbert+bf", "all-to-all", "fcfs", id="2d-a2a-fcfs"),
    pytest.param(Mesh(8, 8), "mc", "random", "easy", id="2d-mc-random-easy"),
    pytest.param(
        Mesh(8, 8, torus=True), "s-curve+ff", "ring", "wfq", id="2d-torus-ring-wfq"
    ),
    pytest.param(FatTree(4), "rack-aware", "all-to-all", "fcfs", id="fattree-rack"),
]


def _assert_identical(vector, loop, jobs):
    assert vector.makespan == loop.makespan
    assert len(vector.jobs) == len(jobs)
    # Dataclass equality covers every recorded field, including the
    # new held count and both exact-ratio hop metrics.
    assert vector.jobs == loop.jobs
    assert vector.scheduler == loop.scheduler
    assert vector.allocator == loop.allocator


class TestEngineEquivalence:
    @pytest.mark.parametrize("mesh, allocator, pattern, scheduler", COMBOS)
    def test_engines_bit_identical(self, mesh, allocator, pattern, scheduler):
        jobs = _jobs_for(mesh)
        vector = _run(mesh, allocator, pattern, scheduler, "vector", jobs)
        loop = _run(mesh, allocator, pattern, scheduler, "loop", jobs)
        _assert_identical(vector, loop, jobs)

    @pytest.mark.parametrize("mesh, allocator, pattern, scheduler", CONGESTED_COMBOS)
    def test_congested_engines_bit_identical(
        self, mesh, allocator, pattern, scheduler, monkeypatch
    ):
        """Congested links: the vector engine's sparse waterfill and
        early-exit fixed point against the loop engine's dense solve and
        full-length loop."""
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return max_min_rates(*args, **kwargs)

        monkeypatch.setattr(fluid, "max_min_rates", counted)
        jobs = _jobs_for(mesh)
        vector = _run(
            mesh, allocator, pattern, scheduler, "vector", jobs, params=CONGESTED
        )
        assert solves, "the congested run never reached the waterfill"
        loop = _run(mesh, allocator, pattern, scheduler, "loop", jobs, params=CONGESTED)
        _assert_identical(vector, loop, jobs)

    def test_stochastic_pattern_same_per_job_seeds(self):
        """The random pattern draws per-job cycles from the same seeds in
        both engines (seed spawning is keyed by job id, not start order)."""
        mesh = Mesh(8, 8)
        jobs = [Job(i, float(5 * i), 4 + i, 20.0) for i in range(8)]
        vector = _run(mesh, "hilbert+bf", "random", "fcfs", "vector", jobs, seed=11)
        loop = _run(mesh, "hilbert+bf", "random", "fcfs", "loop", jobs, seed=11)
        assert vector.jobs == loop.jobs
