"""Unit tests for the switched Clos fabrics and the topology-string parser.

The graph-law invariants live in ``test_topology_protocol.py``; this
module pins the fabric-specific facts -- vertex censuses, the exact
distance sets the docstrings promise, hierarchy groupings, label
canonicalisation and the ``build_topology`` string forms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.clos import (
    Dragonfly,
    FatTree,
    LeafSpine,
    build_topology,
    topology_label,
)
from repro.mesh.topology import Mesh


class TestFatTree:
    def test_census(self):
        ft = FatTree(4)
        assert ft.n_nodes == 16  # k^3/4
        assert ft.n_vertices == 16 + 8 + 8 + 4  # hosts, edges, aggs, cores
        assert ft.shape == (16,)
        assert ft.label == "fattree:k=4"

    def test_distance_set(self):
        ft = FatTree(4)
        dist = np.asarray(ft.pairwise_distance(np.arange(ft.n_nodes)))
        assert set(np.unique(dist)) == {0, 2, 4, 6}
        assert ft.distance(0, 1) == 2  # same edge switch
        assert ft.distance(0, 2) == 4  # same pod, different edge
        assert ft.distance(0, 4) == 6  # different pod

    def test_hierarchy_levels(self):
        names = [name for name, _ in FatTree(4).hierarchy_levels()]
        assert names == ["edge", "pod"]
        _, pod_of = FatTree(4).hierarchy_levels()[-1]
        assert np.array_equal(np.bincount(pod_of), [4, 4, 4, 4])

    @pytest.mark.parametrize("bad", [0, 3, -2])
    def test_rejects_odd_or_tiny_arity(self, bad):
        with pytest.raises(ValueError, match="arity"):
            FatTree(bad)


class TestLeafSpine:
    def test_census_nonblocking(self):
        ls = LeafSpine(6, 3)
        assert ls.hosts_per_leaf == 3
        assert ls.n_nodes == 18
        assert ls.n_vertices == 18 + 6 + 3
        assert ls.label == "leafspine:6x3"

    def test_oversubscription_packs_more_hosts(self):
        ls = LeafSpine(4, 2, oversubscription=2.0)
        assert ls.hosts_per_leaf == 4
        assert ls.n_nodes == 16
        assert "oversub" in ls.label

    def test_distance_set(self):
        ls = LeafSpine(6, 3)
        dist = np.asarray(ls.pairwise_distance(np.arange(ls.n_nodes)))
        assert set(np.unique(dist)) == {0, 2, 4}

    def test_fractional_host_count_rejected(self):
        with pytest.raises(ValueError, match="oversubscription"):
            LeafSpine(4, 3, oversubscription=0.5)
        with pytest.raises(ValueError, match="oversubscription"):
            LeafSpine(4, 3, oversubscription=-1.0)


class TestDragonfly:
    def test_census(self):
        df = Dragonfly(5, 3, 2)
        assert df.n_nodes == 30
        assert df.n_vertices == 30 + 15  # hosts + routers
        assert df.label == "dragonfly:5x3x2"

    def test_distance_set(self):
        df = Dragonfly(5, 3, 2)
        dist = np.asarray(df.pairwise_distance(np.arange(df.n_nodes)))
        assert dist[0, 1] == 2  # same router
        assert dist[0, 2] == 3  # same group, different router
        assert set(np.unique(dist)) <= {0, 2, 3, 4, 5}
        assert dist.max() == 5

    def test_hierarchy_levels(self):
        names = [name for name, _ in Dragonfly(5, 3, 2).hierarchy_levels()]
        assert names == ["router", "group"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Dragonfly(0, 3, 2)


class TestHostValidation:
    @pytest.mark.parametrize(
        "topo", [FatTree(4), LeafSpine(6, 3), Dragonfly(5, 3, 2)]
    )
    def test_out_of_range_hosts_raise(self, topo):
        with pytest.raises(ValueError, match="out of range"):
            topo.distance(-1, 0)
        with pytest.raises(ValueError, match="out of range"):
            topo.pairwise_distance([0, topo.n_nodes])
        with pytest.raises(ValueError, match="out of range"):
            topo.route(0, topo.n_nodes)


class TestBuildTopology:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("fattree:k=8", FatTree(8)),
            ("FatTree:8", FatTree(8)),
            ("leafspine:40x16", LeafSpine(40, 16)),
            ("leafspine:leaves=4,spines=2,oversub=2", LeafSpine(4, 2, 2.0)),
            ("dragonfly:9x4x2", Dragonfly(9, 4, 2)),
            ("dragonfly:groups=9,routers=4,hosts=2", Dragonfly(9, 4, 2)),
        ],
    )
    def test_clos_strings(self, text, expected):
        assert build_topology(text) == expected

    def test_mesh_strings(self):
        assert build_topology("16x22") == Mesh(16, 22)
        assert build_topology("8x8x8t") == Mesh(8, 8, 8, torus=True)

    @pytest.mark.parametrize(
        "bad", ["fattree:", "fattree:k=7", "leafspine:40", "dragonfly:9x4",
                "warpdrive:3", "16x", ""]
    )
    def test_bad_strings_raise(self, bad):
        with pytest.raises(ValueError):
            build_topology(bad)

    @pytest.mark.parametrize(
        "topo",
        [FatTree(8), LeafSpine(40, 16), LeafSpine(4, 2, 2.0),
         Dragonfly(9, 4, 2), Mesh(16, 22), Mesh(4, 4, 4, torus=True)],
    )
    def test_label_round_trips(self, topo):
        assert build_topology(topology_label(topo)) == topo
