"""Closed-form traffic/metric identities against the generic paths.

The vectorised simulation core replaces per-message routing loops with
closed forms (all-pairs census products, cached deterministic cycles,
union-find component counts, circular census quadratic forms).  Each must
be *bit-identical* -- ``array_equal`` / ``==``, never approx -- to the
generic construction it shortcuts, because cached artifacts pin the
simulator's exact floats.
"""

import numpy as np
import pytest

from repro.core.metrics import components, n_components, total_pairwise_hops
from repro.mesh.topology import Mesh
from repro.network.traffic import (
    all_pairs_load_vector,
    all_pairs_mean_hops,
    build_load_vector,
    mean_message_hops,
    pattern_flow_profile,
)
from repro.patterns.alltoall import AllToAll, AllToAllBroadcast
from repro.patterns.nbody import NBody
from repro.patterns.pingpong import AllPairsPingPong
from repro.patterns.ring import Ring

MESHES = [
    Mesh(4, 4),
    Mesh(1, 7),
    Mesh(8, 3),
    Mesh(2, 2, 2),
    Mesh(3, 4, 2),
]


def _all_ordered_pairs(p):
    src, dst = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    keep = src != dst
    return np.stack([src[keep], dst[keep]], axis=1)


class TestAllPairsClosedForms:
    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: str(m.shape))
    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_load_vector_matches_routed_cycle(self, mesh, k):
        rng = np.random.default_rng(hash((mesh.shape, k)) % 2**32)
        for _ in range(5):
            k_eff = min(k, mesh.n_nodes)
            nodes = rng.choice(mesh.n_nodes, size=k_eff, replace=False)
            pairs = _all_ordered_pairs(k_eff)
            expected = build_load_vector(mesh, nodes, pairs, message_flits=64.0)
            got = all_pairs_load_vector(mesh, nodes, message_flits=64.0)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: str(m.shape))
    def test_mean_hops_matches_cycle_mean(self, mesh):
        rng = np.random.default_rng(11)
        for k in (2, 6, min(12, mesh.n_nodes)):
            nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
            pairs = _all_ordered_pairs(k)
            assert all_pairs_mean_hops(mesh, nodes) == mean_message_hops(
                mesh, nodes, pairs
            )

    def test_torus_rejected(self):
        mesh = Mesh(4, 4, torus=True)
        with pytest.raises(ValueError):
            all_pairs_load_vector(mesh, np.arange(6))

    def test_single_processor_is_zero(self):
        mesh = Mesh(4, 4)
        assert not all_pairs_load_vector(mesh, np.array([5])).any()
        assert all_pairs_mean_hops(mesh, np.array([5])) == 0.0


class TestPatternFlowProfile:
    @pytest.mark.parametrize(
        "pattern",
        [AllToAll(), AllToAllBroadcast(), NBody(), Ring(), AllPairsPingPong()],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize("torus", [False, True])
    def test_profile_matches_generic_route(self, pattern, torus):
        mesh = Mesh(6, 6, torus=torus)
        rng = np.random.default_rng(5)
        for k in (2, 4, 9):
            nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
            pairs = pattern.cycle(k)
            load, hops, cycle_len = pattern_flow_profile(
                mesh, pattern, nodes, message_flits=64.0
            )
            assert np.array_equal(
                load, build_load_vector(mesh, nodes, pairs, message_flits=64.0)
            )
            assert hops == mean_message_hops(mesh, nodes, pairs)
            assert cycle_len == len(pairs)

    def test_cached_cycle_reused_and_immutable(self):
        pattern = AllToAll()
        first = pattern.cached_cycle(8)
        assert pattern.cached_cycle(8) is first
        pairs, counts = first
        assert not pairs.flags.writeable
        assert not counts.flags.writeable
        assert np.array_equal(pairs, pattern.cycle(8))
        assert np.array_equal(counts, np.ones(len(pairs)))

    def test_stochastic_pattern_cannot_cache(self):
        from repro.patterns.base import get_pattern

        random_pattern = get_pattern("random")
        assert not random_pattern.deterministic_cycle
        with pytest.raises(ValueError):
            random_pattern.cached_cycle(4)


class TestComponentCount:
    @pytest.mark.parametrize(
        "mesh",
        [
            Mesh(5, 5),
            Mesh(5, 5, torus=True),
            Mesh(2, 6, torus=True),  # extent-2 axis: wrap == forward edge
            Mesh(3, 3, 3),
            Mesh(2, 3, 4, torus=True),
            # Large enough for both the scalar (k < 64) and vectorised paths.
            Mesh(16, 22),
            Mesh(9, 10, torus=True),
            Mesh(4, 5, 6, torus=True),
        ],
        ids=lambda m: f"{m.shape}{'t' if m.torus else ''}",
    )
    def test_matches_bfs_components(self, mesh):
        rng = np.random.default_rng(mesh.n_nodes)
        for _ in range(30):
            k = int(rng.integers(1, mesh.n_nodes + 1))
            nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
            assert n_components(mesh, nodes) == len(components(mesh, nodes))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            n_components(Mesh(4, 4), np.array([1, 1, 2]))

    def test_empty_is_zero(self):
        assert n_components(Mesh(4, 4), np.array([], dtype=np.int64)) == 0


class TestCircularPairwiseSum:
    @pytest.mark.parametrize(
        "mesh", [Mesh(5, 7, torus=True), Mesh(3, 4, 5, torus=True)]
    )
    def test_matches_brute_force(self, mesh):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(2, min(20, mesh.n_nodes) + 1))
            nodes = rng.choice(mesh.n_nodes, size=k, replace=False)
            brute = 0
            for i in range(k):
                for j in range(i + 1, k):
                    brute += int(mesh.manhattan(nodes[i : i + 1], nodes[j : j + 1])[0])
            assert total_pairwise_hops(mesh, nodes) == brute
