"""Tests for repro.network.flit: the wormhole microsimulator."""

import numpy as np
import pytest

from repro.mesh.topology import Mesh
from repro.network.flit import FlitNetwork, FlitParams
from repro.patterns import AllToAll, NBody, Ring


@pytest.fixture
def net8(mesh8):
    return FlitNetwork(mesh8, FlitParams(flit_time=1.0, router_delay=1.0))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlitParams(flit_time=0)
        with pytest.raises(ValueError):
            FlitParams(router_delay=-1)


class TestDeliver:
    def test_single_message_latency(self, net8, mesh8):
        """Uncontended: hops * router_delay + final router + flits * flit_time."""
        src = mesh8.node_id(0, 0)
        dst = mesh8.node_id(3, 0)
        msgs = net8.deliver([(0.0, src, dst, 4)])
        # 3 links: acquire at t=0 (+1 router each for first two), header done
        # acquiring third at t=2, +1 final router, +4 flits -> 7.
        assert msgs[0].delivered_at == pytest.approx(7.0)

    def test_self_message(self, net8):
        msgs = net8.deliver([(0.0, 5, 5, 4)])
        assert msgs[0].delivered_at == pytest.approx(5.0)  # router + flits

    def test_all_delivered(self, net8, mesh8):
        rng = np.random.default_rng(0)
        batch = [
            (float(i), int(rng.integers(0, 64)), int(rng.integers(0, 64)), 8)
            for i in range(50)
        ]
        msgs = net8.deliver(batch)
        assert len(msgs) == 50
        assert all(m.delivered_at >= m.issue_time for m in msgs)

    def test_contention_serialises_same_link(self, net8, mesh8):
        """Two messages over the same single link can't overlap."""
        a = mesh8.node_id(0, 0)
        b = mesh8.node_id(1, 0)
        msgs = net8.deliver([(0.0, a, b, 10), (0.0, a, b, 10)])
        t1, t2 = sorted(m.delivered_at for m in msgs)
        # Second starts only after first releases: >= 10 flits later.
        assert t2 - t1 >= 10.0

    def test_disjoint_paths_run_in_parallel(self, net8, mesh8):
        a = net8.deliver(
            [
                (0.0, mesh8.node_id(0, 0), mesh8.node_id(3, 0), 8),
                (0.0, mesh8.node_id(0, 5), mesh8.node_id(3, 5), 8),
            ]
        )
        assert a[0].delivered_at == pytest.approx(a[1].delivered_at)

    def test_fifo_arbitration(self, net8, mesh8):
        """Earlier-issued message wins the contested link."""
        a = mesh8.node_id(0, 0)
        b = mesh8.node_id(1, 0)
        msgs = net8.deliver([(0.0, a, b, 5), (0.5, a, b, 5)])
        assert msgs[0].delivered_at < msgs[1].delivered_at

    def test_invalid_flits(self, net8):
        with pytest.raises(ValueError):
            net8.deliver([(0.0, 0, 1, 0)])

    def test_longer_messages_take_longer(self, net8, mesh8):
        src, dst = mesh8.node_id(0, 0), mesh8.node_id(4, 4)
        short = net8.deliver([(0.0, src, dst, 2)])[0].delivered_at
        long = net8.deliver([(0.0, src, dst, 64)])[0].delivered_at
        assert long == pytest.approx(short + 62.0)

    def test_deadlock_free_heavy_crossing_traffic(self, mesh8):
        """Saturate the mesh with crossing messages; all must deliver."""
        net = FlitNetwork(mesh8, FlitParams(flit_time=0.1, router_delay=0.1))
        rng = np.random.default_rng(7)
        batch = []
        for i in range(400):
            s, d = rng.integers(0, 64, 2)
            batch.append((0.0, int(s), int(d), 16))
        msgs = net.deliver(batch)
        assert all(m.delivered_at >= 0 for m in msgs)


class TestRunBsp:
    def test_single_job_rounds_serialise(self, net8):
        nodes = np.arange(4)
        rounds = Ring().rounds(4) * 3  # 3 identical rounds
        finish = net8.run_bsp({0: (nodes, rounds)}, message_flits=4)
        single = net8.run_bsp({0: (nodes, Ring().rounds(4))}, message_flits=4)
        assert finish[0] > single[0]

    def test_empty_job_finishes_immediately(self, net8):
        finish = net8.run_bsp({0: (np.array([3]), [])}, start_time=5.0)
        assert finish[0] == 5.0

    def test_two_jobs_finish(self, net8, mesh8):
        jobs = {
            1: (np.arange(8), AllToAll().rounds(8)),
            2: (np.arange(32, 40), AllToAll().rounds(8)),
        }
        finish = net8.run_bsp(jobs, message_flits=4)
        assert set(finish) == {1, 2}
        assert all(t > 0 for t in finish.values())

    def test_compute_time_adds_gaps(self, net8):
        nodes = np.arange(4)
        rounds = Ring().rounds(4) * 2
        fast = net8.run_bsp({0: (nodes, rounds)}, message_flits=4)
        slow = net8.run_bsp({0: (nodes, rounds)}, message_flits=4, compute_time=10.0)
        assert slow[0] == pytest.approx(fast[0] + 10.0)

    def test_dispersed_allocation_slower(self, mesh8):
        """The paper's core effect at flit level: dispersal hurts."""
        net = FlitNetwork(mesh8, FlitParams(flit_time=0.5, router_delay=0.5))
        rounds = NBody().rounds(8)
        compact = np.array([mesh8.node_id(x, y) for x in (0, 1) for y in range(4)])
        dispersed = np.array(
            [mesh8.node_id(x, y) for x in (0, 7) for y in (0, 2, 4, 6)]
        )
        t_compact = net.run_bsp({0: (compact, rounds)}, message_flits=8)[0]
        t_dispersed = net.run_bsp({0: (dispersed, rounds)}, message_flits=8)[0]
        assert t_dispersed > t_compact
