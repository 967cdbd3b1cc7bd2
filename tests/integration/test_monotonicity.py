"""Property tests on the engines' economic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import Mesh
from repro.network.fluid import FluidNetwork, NetworkParams
from repro.network.traffic import build_load_vector, mean_message_hops
from repro.patterns import AllToAll


def _random_flow(mesh, params, rng, p=12):
    nodes = rng.choice(mesh.n_nodes, size=p, replace=False)
    pairs = AllToAll().cycle(p)
    loads = build_load_vector(mesh, nodes, pairs, params.message_flits)
    return loads, mean_message_hops(mesh, nodes, pairs)


class TestFluidMonotonicity:
    @given(seed=st.integers(0, 300), n_flows=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_adding_a_flow_never_raises_existing_rates(self, seed, n_flows):
        """More competition can only slow everyone down (or leave them)."""
        mesh = Mesh(8, 8)
        params = NetworkParams()
        rng = np.random.default_rng(seed)
        net = FluidNetwork(mesh, params)
        for fid in range(n_flows):
            loads, hops = _random_flow(mesh, params, rng)
            net.add_flow(fid, loads, hops)
        before = dict(zip(net.flow_ids(), net.rates_vector()))
        loads, hops = _random_flow(mesh, params, rng)
        net.add_flow(999, loads, hops)
        after = dict(zip(net.flow_ids(), net.rates_vector()))
        for fid in before:
            assert after[fid] <= before[fid] * (1 + 1e-6)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_rates_deterministic(self, seed):
        mesh = Mesh(8, 8)
        params = NetworkParams()
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        net1, net2 = FluidNetwork(mesh, params), FluidNetwork(mesh, params)
        for fid in range(3):
            l1, h1 = _random_flow(mesh, params, rng1)
            l2, h2 = _random_flow(mesh, params, rng2)
            net1.add_flow(fid, l1, h1)
            net2.add_flow(fid, l2, h2)
        assert net1.flow_ids() == net2.flow_ids()
        assert np.array_equal(net1.rates_vector(), net2.rates_vector())

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_rates_positive_and_capped(self, seed):
        mesh = Mesh(8, 8)
        params = NetworkParams()
        rng = np.random.default_rng(seed)
        net = FluidNetwork(mesh, params)
        for fid in range(4):
            loads, hops = _random_flow(mesh, params, rng)
            net.add_flow(fid, loads, hops)
        for rate in net.rates_vector():
            assert 0 < rate <= params.issue_rate + 1e-9


class TestUtilization:
    def test_single_job_utilization(self):
        from repro.sched.simulator import JobResult, SimulationResult

        result = SimulationResult(
            allocator="x",
            pattern="y",
            mesh_shape=(8, 8),
            load_factor=1.0,
            jobs=[
                JobResult(0, 0.0, 0.0, 10.0, size=32, quota=10,
                          pairwise_hops=1, message_hops=1, n_components=1)
            ],
            makespan=10.0,
        )
        assert result.mean_utilization() == pytest.approx(0.5)

    def test_back_to_back_jobs(self):
        from repro.sched.simulator import JobResult, SimulationResult

        mk = lambda jid, s, c: JobResult(
            jid, 0.0, s, c, size=64, quota=1,
            pairwise_hops=1, message_hops=1, n_components=1,
        )
        result = SimulationResult(
            allocator="x", pattern="y", mesh_shape=(8, 8), load_factor=1.0,
            jobs=[mk(0, 0.0, 5.0), mk(1, 5.0, 10.0)], makespan=10.0,
        )
        assert result.mean_utilization() == pytest.approx(1.0)

    def test_empty(self):
        from repro.sched.simulator import SimulationResult

        empty = SimulationResult(
            allocator="x", pattern="y", mesh_shape=(8, 8), load_factor=1.0
        )
        assert empty.mean_utilization() == 0.0

    def test_contiguous_baseline_loses_utilization(self):
        """Section 2's claim measured end to end: the convex baseline's
        time-averaged utilization trails the noncontiguous allocator's."""
        from repro.core.registry import make_allocator
        from repro.patterns.base import get_pattern
        from repro.sched.job import Job
        from repro.sched.simulator import Simulation
        from repro.trace.synthetic import drop_oversized, sdsc_paragon_trace

        mesh = Mesh(16, 16)
        jobs = drop_oversized(
            sdsc_paragon_trace(seed=5, n_jobs=120, runtime_scale=0.01), 256
        )
        util = {}
        for name in ("hilbert+bf", "contiguous"):
            sim = Simulation(
                mesh, make_allocator(name), get_pattern("all-to-all"), jobs
            )
            util[name] = sim.run().mean_utilization()
        assert util["contiguous"] < util["hilbert+bf"]
