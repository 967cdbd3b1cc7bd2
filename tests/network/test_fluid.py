"""Tests for repro.network.fluid: max-min fairness and the flow API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import Mesh2D
from repro.network.fluid import FluidNetwork, NetworkParams, max_min_rates
from repro.network.traffic import build_load_vector
from repro.patterns import AllToAll


class TestMaxMinRates:
    def test_empty(self):
        assert len(max_min_rates(np.zeros((0, 3)), np.ones(3), np.zeros(0))) == 0

    def test_unloaded_flows_get_caps(self):
        rates = max_min_rates(np.zeros((2, 3)), np.ones(3), np.array([0.5, 1.0]))
        assert rates.tolist() == [0.5, 1.0]

    def test_single_flow_link_limited(self):
        w = np.array([[2.0]])
        rates = max_min_rates(w, np.array([1.0]), np.array([10.0]))
        assert rates[0] == pytest.approx(0.5)

    def test_single_flow_cap_limited(self):
        w = np.array([[0.1]])
        rates = max_min_rates(w, np.array([1.0]), np.array([1.0]))
        assert rates[0] == pytest.approx(1.0)

    def test_equal_flows_share_equally(self):
        w = np.ones((4, 1))
        rates = max_min_rates(w, np.array([1.0]), np.full(4, 10.0))
        assert np.allclose(rates, 0.25)

    def test_classic_three_flow_example(self):
        """Two links; flow0 uses both, flow1 link A, flow2 link B(cap 2).

        Max-min: A saturates first at 0.5/0.5; flow2 then fills B to 1.5.
        """
        w = np.array(
            [
                [1.0, 1.0],
                [1.0, 0.0],
                [0.0, 1.0],
            ]
        )
        caps = np.full(3, 10.0)
        rates = max_min_rates(w, np.array([1.0, 2.0]), caps)
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)
        assert rates[2] == pytest.approx(1.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            max_min_rates(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            max_min_rates(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))

    @given(
        n_flows=st.integers(1, 8),
        n_links=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_feasible_and_maximal(self, n_flows, n_links, seed):
        """Rates are feasible, capped, and each flow is blocked by either
        its cap or a saturated link (max-min optimality certificate)."""
        rng = np.random.default_rng(seed)
        w = rng.random((n_flows, n_links)) * (rng.random((n_flows, n_links)) < 0.5)
        capacities = rng.random(n_links) + 0.5
        caps = rng.random(n_flows) + 0.1
        rates = max_min_rates(w, capacities, caps)
        tol = 1e-7
        assert np.all(rates >= -tol)
        assert np.all(rates <= caps + tol)
        usage = rates @ w
        assert np.all(usage <= capacities + 1e-6)
        saturated = usage >= capacities - 1e-6
        for j in range(n_flows):
            at_cap = rates[j] >= caps[j] - tol
            blocked = np.any(saturated & (w[j] > 0))
            assert at_cap or blocked


class TestFluidNetwork:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(message_flits=0)
        with pytest.raises(ValueError):
            NetworkParams(link_capacity=-1)
        with pytest.raises(ValueError):
            NetworkParams(issue_rate=0)

    def test_issue_cap_decreases_with_distance(self, mesh8):
        net = FluidNetwork(mesh8, NetworkParams(hop_latency=0.1))
        assert net.issue_cap(0.0) == pytest.approx(1.0)
        assert net.issue_cap(10.0) == pytest.approx(0.5)
        assert net.issue_cap(5.0) > net.issue_cap(10.0)

    def test_flow_lifecycle(self, mesh8):
        net = FluidNetwork(mesh8)
        vec = np.zeros(net.space.n_links)
        net.add_flow(1, vec, mean_hops=0.0)
        assert net.n_flows == 1
        with pytest.raises(ValueError):
            net.add_flow(1, vec, mean_hops=0.0)
        net.remove_flow(1)
        assert net.n_flows == 0
        with pytest.raises(ValueError):
            net.remove_flow(1)

    def test_wrong_vector_length(self, mesh8):
        net = FluidNetwork(mesh8)
        with pytest.raises(ValueError):
            net.add_flow(1, np.zeros(3), mean_hops=0.0)

    def test_solo_small_job_runs_at_nominal_rate(self, mesh16):
        """An uncontended compact job should be limited by its cap only."""
        params = NetworkParams(hop_latency=0.0)
        net = FluidNetwork(mesh16, params)
        nodes = np.array([mesh16.node_id(x, y) for x in range(4) for y in range(4)])
        loads = build_load_vector(
            mesh16, nodes, AllToAll().cycle(16), params.message_flits
        )
        net.add_flow(0, loads, mean_hops=2.5)
        assert net.rates()[0] == pytest.approx(1.0)

    @staticmethod
    def _shuttle_job(mesh, net, params, job_id, row):
        """A ring strung between column 0 and 15 of one row: every message
        crosses the row's central links -- maximal self-contention."""
        from repro.network.traffic import mean_message_hops
        from repro.patterns import Ring

        nodes = np.array(
            [
                mesh.node_id(0, row),
                mesh.node_id(15, row),
                mesh.node_id(1, row),
                mesh.node_id(14, row),
            ]
        )
        pairs = Ring().cycle(4)
        loads = build_load_vector(mesh, nodes, pairs, params.message_flits)
        hops = mean_message_hops(mesh, nodes, pairs)
        net.add_flow(job_id, loads, mean_hops=hops)
        return hops

    def test_contention_lowers_rates(self, mesh16):
        """Badly dispersed jobs sharing hot links slow each other down."""
        params = NetworkParams()
        net = FluidNetwork(mesh16, params)
        self._shuttle_job(mesh16, net, params, 0, row=4)
        solo = net.rates()[0]
        assert solo < 1.0  # long routes: latency + self-contention bind
        self._shuttle_job(mesh16, net, params, 1, row=4)
        shared = net.rates()
        assert shared[0] < solo
        assert shared[0] == pytest.approx(shared[1])

    def test_contention_factor_zero_isolates_latency(self, mesh16):
        """gamma = 0 reduces the model to pure issue + hop latency."""
        params = NetworkParams(contention_factor=0.0)
        net = FluidNetwork(mesh16, params)
        hops = self._shuttle_job(mesh16, net, params, 0, row=4)
        expected = 1.0 / (1.0 + params.hop_latency * hops)
        assert net.rates()[0] == pytest.approx(expected)
