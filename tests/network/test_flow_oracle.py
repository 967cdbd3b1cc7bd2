"""Route-scatter traffic profiles against a per-message hop-walk oracle.

``pattern_flow_profile`` and ``build_load_vector`` count link crossings
with one difference-array scatter over a pattern's weighted cycle.  The
oracle here shares no code with that scatter: it walks every message of
the full ``cycle(p)`` hop by hop through ``LinkSpace.links_on_route``
and tallies crossings in Python integers.  Both then apply the same load
convention (crossing count x ``message_flits`` / cycle length), so the
results must agree exactly -- including for fractional ``message_flits``,
where a link no route crosses must read exactly 0.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.loop_engine import ENGINES, run_engine

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh
from repro.network.fluid import NetworkParams
from repro.network.links import LinkSpace
from repro.network.traffic import build_load_vector, pattern_flow_profile
from repro.patterns.base import get_pattern, pattern_names
from repro.sched.simulator import Simulation
from repro.trace.synthetic import sdsc_paragon_trace

FLITS = [64.0, 1.0, 0.3]


def _pattern(name):
    # The Cplant suite repeats its pass 100 times by default; two keep the
    # oracle's per-message walk small without changing the suite's shape.
    if name == "cplant-test-suite":
        return get_pattern(name, repetitions=2)
    return get_pattern(name)


def _oracle(mesh, nodes, pairs, flits):
    """(load, mean hops) from walking every message's route."""
    space = LinkSpace.for_mesh(mesh)
    tally = [0] * space.n_links
    hops = 0
    for s, d in pairs:
        src, dst = int(nodes[s]), int(nodes[d])
        for link in space.links_on_route(src, dst):
            tally[link] += 1
        hops += int(mesh.distance(src, dst))
    m = len(pairs)
    if m == 0:
        return np.zeros(space.n_links), 0.0
    load = np.asarray(tally, dtype=np.float64) * flits / m
    return load, hops / m


meshes = st.one_of(
    st.builds(
        Mesh, st.integers(1, 6), st.integers(2, 6), torus=st.booleans()
    ),
    st.builds(
        Mesh,
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(2, 3),
        torus=st.booleans(),
    ),
)


class TestScatterMatchesRouteWalk:
    @given(
        mesh=meshes,
        name=st.sampled_from(pattern_names()),
        flits=st.sampled_from(FLITS),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_profile_and_load_vector_match_oracle(self, mesh, name, flits, data):
        pattern = _pattern(name)
        k = data.draw(st.integers(1, min(mesh.n_nodes, 9)), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
        pairs = pattern.cycle(k, np.random.default_rng(seed))
        expected_load, expected_hops = _oracle(mesh, nodes, pairs, flits)

        load, hops, cycle_len = pattern_flow_profile(
            mesh, pattern, nodes, flits, np.random.default_rng(seed)
        )
        assert cycle_len == len(pairs)
        assert hops == expected_hops
        assert np.array_equal(load, expected_load)
        assert np.array_equal(
            build_load_vector(mesh, nodes, pairs, flits), expected_load
        )


class TestWeightedCycles:
    @pytest.mark.parametrize(
        "name", [n for n in pattern_names() if _pattern(n).deterministic_cycle]
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 10])
    def test_weighted_form_is_the_cycle(self, name, p):
        pattern = _pattern(name)
        pairs, counts = pattern.cached_cycle(p)
        cycle = pattern.cycle(p)
        assert counts.sum() == len(cycle)
        folded = Counter()
        for (s, d), c in zip(pairs.tolist(), counts.tolist()):
            folded[(s, d)] += c
        assert folded == Counter(map(tuple, cycle.tolist()))

    def test_nbody_routes_2p_rows(self):
        pairs, counts = get_pattern("n-body").cached_cycle(300)
        assert len(pairs) == 600
        assert counts.sum() == 300 * 151


class TestFractionalFlits:
    """``message_flits = 0.3`` once left difference-array residue of about
    -1.5e-17 on links no route crosses, which the fluid network rejects
    as negative link weights."""

    @pytest.mark.parametrize("name", pattern_names())
    @pytest.mark.parametrize(
        "mesh",
        [Mesh(16, 16), Mesh(6, 6, torus=True), Mesh(4, 4, 4)],
        ids=lambda m: f"{m.shape}{'t' if m.torus else ''}",
    )
    def test_load_nonnegative_and_zero_off_route(self, name, mesh):
        pattern = _pattern(name)
        space = LinkSpace.for_mesh(mesh)
        rng = np.random.default_rng(3)
        for k in (2, 13, 30):
            nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
            load, _, _ = pattern_flow_profile(
                mesh, pattern, nodes, 0.3, np.random.default_rng(k)
            )
            pairs = pattern.cycle(k, np.random.default_rng(k))
            on_route = np.zeros(space.n_links, dtype=bool)
            for s, d in pairs:
                on_route[space.links_on_route(int(nodes[s]), int(nodes[d]))] = True
            assert np.all(load >= 0)
            assert np.all(load[~on_route] == 0)
            assert np.all(load[on_route] > 0)

    @pytest.mark.parametrize("name", ["n-body", "random", "all-to-all"])
    def test_engines_agree_at_low_capacity(self, name):
        mesh = Mesh(16, 16)
        jobs = sdsc_paragon_trace(seed=1, n_jobs=40, runtime_scale=0.02)
        jobs = [j for j in jobs if j.size <= mesh.n_nodes]
        params = NetworkParams(message_flits=0.3, link_capacity=0.05)
        vector, loop = (
            run_engine(
                Simulation(
                    mesh,
                    make_allocator("hilbert+bf"),
                    get_pattern(name),
                    jobs,
                    params,
                    seed=5,
                ),
                engine,
            )
            for engine in ENGINES
        )
        assert vector.makespan == loop.makespan
        assert vector.jobs == loop.jobs
