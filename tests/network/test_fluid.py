"""Tests for repro.network.fluid: max-min fairness and the flow API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.loop_engine import _LoopFluidNetwork
from oracles.maxmin import assert_max_min_certificate, dense_max_min_rates

from repro.campaign import expand, loads_campaign
from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.network import fluid
from repro.network.fluid import FluidNetwork, NetworkParams, max_min_rates
from repro.network.traffic import build_load_vector, mean_message_hops
from repro.patterns import AllToAll
from repro.runner import run_cell
from repro.sched.simulator import Simulation
from repro.trace.synthetic import sdsc_paragon_trace


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
        assert_max_min_certificate(w, capacities, caps, rates)

    @given(
        n_flows=st.integers(1, 64),
        n_links=st.integers(2, 12),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.booleans(),
        tiny_links=st.booleans(),
        tight_caps=st.booleans(),
        duplicate_rows=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle_bit_for_bit(
        self, n_flows, n_links, density, seed, zero_rows, tiny_links, tight_caps, duplicate_rows
    ):
        """The incidence waterfill returns exactly the dense sweep's floats.

        Two or more links: NumPy reduces a one-column matrix's axis 0
        pairwise, so the dense reference's column sum is then not the
        row-order sum (no mesh has exactly one directed link; the one-link
        case is ``test_single_link_agrees_with_dense``).
        """
        rng = np.random.default_rng(seed)
        w = rng.random((n_flows, n_links)) * (rng.random((n_flows, n_links)) < density)
        if zero_rows:
            w[rng.random(n_flows) < 0.3] = 0.0
        if tiny_links:
            # Links whose total demand can stay at or below _EPS.
            w[:, rng.random(n_links) < 0.4] *= 1e-14
        if duplicate_rows and n_flows > 1:
            src = rng.integers(0, n_flows, size=n_flows // 2)
            dst = rng.integers(0, n_flows, size=n_flows // 2)
            w[dst] = w[src]
        capacities = rng.choice([0.5, 1.0, 2.0], size=n_links) * rng.integers(1, 3)
        if tight_caps:
            caps = np.full(n_flows, 0.01) * rng.integers(1, 4, size=n_flows)
        else:
            caps = np.full(n_flows, rng.choice([0.5, 1.0, 10.0]))
        rates = max_min_rates(w, capacities, caps)
        assert np.array_equal(rates, dense_max_min_rates(w, capacities, caps))
        rows, links = np.nonzero(w > 0)
        incidence = (rows, links, w[rows, links])
        assert np.array_equal(max_min_rates(w, capacities, caps, incidence=incidence), rates)

    def test_single_link_agrees_with_dense(self):
        """On one link the dense reference sums pairwise; the results agree
        to rounding and both are max-min fair."""
        rng = np.random.default_rng(7)
        w = rng.random((40, 1)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        capacities = np.array([1.0])
        caps = np.full(40, 10.0)
        rates = max_min_rates(w, capacities, caps)
        assert_max_min_certificate(w, capacities, caps, rates)
        np.testing.assert_allclose(rates, dense_max_min_rates(w, capacities, caps), rtol=1e-12)

    def test_incidence_left_unmodified(self):
        """Frozen flows' entries are dropped from the solver's own arrays,
        never written into the caller's."""
        rng = np.random.default_rng(4)
        w = rng.random((12, 9)) * (rng.random((12, 9)) < 0.5)
        capacities = np.full(9, 0.8)
        caps = rng.random(12) + 0.1
        rows, links = np.nonzero(w > 0)
        incidence = (rows, links, w[rows, links])
        before = tuple(a.copy() for a in incidence)
        rates = max_min_rates(w, capacities, caps, incidence=incidence)
        for kept, original in zip(incidence, before):
            assert np.array_equal(kept, original)
        assert np.array_equal(rates, dense_max_min_rates(w, capacities, caps))

    def test_cap_and_link_freeze_in_one_round(self):
        """``dt_cap == dt_link``: flows 0 and 1 fill link 0 at 0.5 exactly
        when flow 2 reaches its 0.5 cap; all three freeze in the first
        round, and flow 3 goes on alone to its cap of 2.0."""
        w = np.array(
            [
                [1.0, 0.0],
                [1.0, 0.0],
                [0.0, 1.0],
                [0.0, 1.0],
            ]
        )
        capacities = np.array([1.0, 10.0])
        caps = np.array([1.0, 1.0, 0.5, 2.0])
        rates = max_min_rates(w, capacities, caps)
        assert rates.tolist() == [0.5, 0.5, 0.5, 2.0]
        assert np.array_equal(rates, dense_max_min_rates(w, capacities, caps))


#: fig07's 16x22 machine, patterns, allocators, loads and trace length on
#: links of 2 flits/s, where the waterfill runs on almost every rate
#: refresh: ~2,800 solves, about 8 s with both checks on a 2-CPU VM.
CONGESTED_GRID_TOML = """
[campaign]
name = "congested-grid"

[defaults]
seed = 1
n_jobs = 150
runtime_scale = 0.01
network = { link_capacity = 2.0 }

[axes]
mesh = ["16x22"]
pattern = ["all-to-all", "n-body", "random"]
load = [1.0, 0.2]
allocator = ["mc", "hilbert+bf", "random"]
"""


def _certify_every_solve(monkeypatch) -> list[int]:
    """Wrap the ``max_min_rates`` that ``FluidNetwork.rates_vector`` calls:
    each solve must pass the max-min certificate and equal the dense
    reference bit for bit.  Returns, per solve, how many flows were held
    below their cap (the saturated-link branch)."""
    solves = []

    def certified(weights, capacities, caps, incidence=None):
        rates = max_min_rates(weights, capacities, caps, incidence=incidence)
        assert_max_min_certificate(weights, capacities, caps, rates)
        assert np.array_equal(rates, dense_max_min_rates(weights, capacities, caps))
        solves.append(int(np.count_nonzero(rates < caps)))
        return rates

    monkeypatch.setattr(fluid, "max_min_rates", certified)
    return solves


class TestCertificateOnEverySolve:
    """The certificate holds on every waterfill a congested run performs.

    A test-side wrapper replaces the ``max_min_rates`` that
    ``FluidNetwork.rates_vector`` calls, checks each solve's output
    against its inputs and against the dense reference solver, and
    hands the output on unchanged, so the run itself is the product
    code path.
    """

    def test_congested_all_to_all_cell(self, monkeypatch):
        solves = _certify_every_solve(monkeypatch)
        mesh = Mesh(16, 22)
        jobs = [
            j
            for j in sdsc_paragon_trace(seed=1, n_jobs=40, runtime_scale=0.01)
            if j.size <= mesh.n_nodes
        ]
        result = Simulation(
            mesh,
            make_allocator("hilbert+bf"),
            AllToAll(),
            jobs,
            NetworkParams(link_capacity=2.0),
            seed=1,
        ).run()
        assert len(result.jobs) == len(jobs)
        assert solves, "the congested run never reached the waterfill"
        assert any(solves), "no solve had a link-limited flow"

    def test_congested_grid(self, monkeypatch):
        """Every cell of the congested grid: three patterns, three
        allocators, two loads."""
        solves = _certify_every_solve(monkeypatch)
        cells = expand(loads_campaign(CONGESTED_GRID_TOML)).cells
        assert len(cells) == 18
        for cell in cells:
            before = len(solves)
            result = run_cell(cell.spec)
            assert result.jobs, cell.spec
            assert len(solves) > before, f"no waterfill in {cell.spec}"
        assert any(solves), "no solve had a link-limited flow"


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

    @staticmethod
    def _assert_incidence(net):
        n = net.n_flows
        weights = net._weights[:n]
        rows, links, values = net._incidence()
        expected_rows, expected_links = np.nonzero(weights > 0)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(links, expected_links)
        assert np.array_equal(values, weights[expected_rows, expected_links])

    def test_incidence_follows_add_and_remove(self, mesh8):
        """The kept incidence is the dense rows' nonzero pattern after
        every step, whether a row's entries were built before its
        neighbours moved or after."""
        net = FluidNetwork(mesh8, NetworkParams(link_capacity=0.05))
        n_links = net.space.n_links
        rng = np.random.default_rng(11)

        def load():
            return rng.random(n_links) * (rng.random(n_links) < 0.2)

        steps = [
            ("add", 0, load()),
            ("add", 1, np.zeros(n_links)),
            ("add", 2, load()),
            ("solve",),
            ("add", 3, load()),
            ("remove", 1),
            ("add", 4, load()),
            ("remove", 0),
            ("solve",),
            ("remove", 4),
            ("add", 5, load()),
            ("remove", 2),
            ("remove", 3),
            ("remove", 5),
        ]
        for step in steps:
            if step[0] == "add":
                net.add_flow(step[1], step[2], mean_hops=2.0)
            elif step[0] == "remove":
                net.remove_flow(step[1])
            else:
                assert np.all(net.rates_vector() > 0)
            if net.n_flows:
                self._assert_incidence(net)
        assert net.n_flows == 0
        assert net._entries == []

    def test_uncongested_gate_builds_no_incidence(self, mesh8):
        net = FluidNetwork(mesh8)
        rng = np.random.default_rng(3)
        for flow_id in range(4):
            net.add_flow(flow_id, rng.random(net.space.n_links), mean_hops=2.0)
        net.rates_vector()
        assert net._entries == [None] * 4

    @pytest.mark.parametrize("capacity", [None, 2.0], ids=["default", "congested"])
    @pytest.mark.parametrize("bad", [-32.0, np.nan], ids=["negative", "nan"])
    def test_bad_load_rejected_at_add_flow(self, capacity, bad):
        """A negative or NaN load is refused when the flow is added, at any
        capacity, and leaves the network as it was."""
        mesh = Mesh(4, 4)
        net = FluidNetwork(mesh, NetworkParams(link_capacity=capacity))
        good = np.ones(net.space.n_links)
        bad_load = good.copy()
        bad_load[5] = bad
        net.add_flow(0, good, mean_hops=2.0)
        with pytest.raises(ValueError, match="negative or NaN link loads"):
            net.add_flow(1, bad_load, mean_hops=2.0)
        assert net.flow_ids() == [0]
        net.add_flow(1, good, mean_hops=2.0)
        assert np.all(net.rates_vector() > 0)

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
        assert net.rates_vector()[0] == pytest.approx(1.0)

    @staticmethod
    def _shuttle_job(mesh, net, params, job_id, row):
        """A ring strung between column 0 and 15 of one row: every message
        crosses the row's central links -- maximal self-contention."""
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
        solo = net.rates_vector()[0]
        assert solo < 1.0  # long routes: latency + self-contention bind
        self._shuttle_job(mesh16, net, params, 1, row=4)
        shared = net.rates_vector()
        assert shared[0] < solo
        assert shared[0] == pytest.approx(shared[1])

    def test_contention_factor_zero_isolates_latency(self, mesh16):
        """gamma = 0 reduces the model to pure issue + hop latency."""
        params = NetworkParams(contention_factor=0.0)
        net = FluidNetwork(mesh16, params)
        hops = self._shuttle_job(mesh16, net, params, 0, row=4)
        expected = 1.0 / (1.0 + params.hop_latency * hops)
        assert net.rates_vector()[0] == pytest.approx(expected)


def _all_to_all_flows(mesh, n_flows=16, size=8, seed=5):
    """``n_flows`` all-to-all jobs on disjoint random node sets:
    ``(load_vector, mean_hops)`` pairs."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)
    pairs = AllToAll().cycle(size)
    flows = []
    for j in range(n_flows):
        nodes = np.sort(perm[j * size : (j + 1) * size])
        flows.append(
            (build_load_vector(mesh, nodes, pairs, 64.0), mean_message_hops(mesh, nodes, pairs))
        )
    return flows


class TestFixedPointExit:
    """The congested fixed point stops at a bitwise fixed point, and only
    there: its output equals the full-length loop of the loop-engine
    oracle, which has no early exit."""

    @staticmethod
    def _rates(mesh, flows, capacity, iterations):
        params = NetworkParams(link_capacity=capacity, fixed_point_iterations=iterations)
        net = FluidNetwork(mesh, params)
        oracle = _LoopFluidNetwork(mesh, params)
        for flow_id, (load, hops) in enumerate(flows):
            net.add_flow(flow_id, load, hops)
            oracle.add_flow(flow_id, load, hops)
        assert not (net._colsum <= net._gate_cap).all(), "gate passed: not congested"
        rates = net.rates_vector()
        expected = np.array(list(oracle.rates().values()))
        assert rates.tobytes() == expected.tobytes()
        return rates

    def test_bandwidth_bound_state_settles_after_one_iteration(self, mesh16x22):
        flows = _all_to_all_flows(mesh16x22)
        one = self._rates(mesh16x22, flows, 2.0, iterations=1)
        six = self._rates(mesh16x22, flows, 2.0, iterations=6)
        assert six.tobytes() == one.tobytes()
        assert np.all(six < 1.0)

    def test_latency_bound_state_keeps_iterating(self, mesh16x22):
        """Capacity just above the busiest link's load: the gate fails, no
        link fills, and the latency stretch moves the rates every round."""
        flows = _all_to_all_flows(mesh16x22)
        busiest = np.sum([load for load, _ in flows], axis=0).max()
        capacity = busiest / 0.95
        one = self._rates(mesh16x22, flows, capacity, iterations=1)
        six = self._rates(mesh16x22, flows, capacity, iterations=6)
        assert not np.array_equal(six, one)
