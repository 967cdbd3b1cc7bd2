"""The ``topology`` spec field: canonicalisation and cache-key neutrality.

The field must be purely additive: every spec that existed before it --
2-D and 3-D meshes, tori, trace refs -- serialises byte-identically
(``to_dict`` omits the key) and keeps its cache key, while Clos specs
round-trip through JSON, canonicalise their string form, and execute
end-to-end through ``run_cell``.
"""

from __future__ import annotations

import pytest

from repro.mesh.clos import FatTree, LeafSpine
from repro.mesh.topology import Mesh
from repro.runner.engine import run_cell
from repro.runner.spec import ExperimentSpec, cell_digest

CLOS = ExperimentSpec(
    mesh_shape=(128,),
    pattern="ring",
    allocator="random",
    load=1.0,
    seed=1,
    n_jobs=10,
    topology="fattree:k=8",
)


class TestLegacySpecsUntouched:
    def test_mesh_dict_omits_topology(self):
        spec = ExperimentSpec(
            mesh_shape=(8, 8), pattern="ring", allocator="mc",
            load=1.0, seed=1, n_jobs=10,
        )
        assert "topology" not in spec.to_dict()

    def test_pinned_2d_cache_key(self):
        # The doctest-pinned digest from before the topology field landed.
        spec = ExperimentSpec(
            mesh_shape=(8, 8), pattern="ring", allocator="mc",
            load=1.0, seed=1, n_jobs=10,
        )
        assert cell_digest(spec)[:12] == "f86d22745a54"

    def test_mesh_string_topology_canonicalises_away(self):
        via_topology = ExperimentSpec(
            mesh_shape=(1,), pattern="ring", allocator="mc",
            load=1.0, seed=1, n_jobs=10, topology="16x22",
        )
        plain = ExperimentSpec(
            mesh_shape=(16, 22), pattern="ring", allocator="mc",
            load=1.0, seed=1, n_jobs=10,
        )
        assert via_topology == plain
        assert cell_digest(via_topology) == cell_digest(plain)
        assert via_topology.topology is None

    def test_torus_string_topology_canonicalises_away(self):
        spec = ExperimentSpec(
            mesh_shape=(1,), pattern="ring", allocator="row-major",
            load=1.0, seed=1, n_jobs=10, topology="4x4x4t",
        )
        assert spec.topology is None
        assert spec.mesh_shape == (4, 4, 4)
        assert spec.torus is True


class TestClosSpecs:
    def test_canonical_label_and_shape(self):
        spec = ExperimentSpec(
            mesh_shape=(1,), pattern="ring", allocator="random",
            load=1.0, seed=1, n_jobs=10, topology="FatTree:8",
        )
        assert spec.topology == "fattree:k=8"
        assert spec.mesh_shape == (128,)
        assert spec == CLOS

    def test_json_round_trip(self):
        clone = ExperimentSpec.from_dict(CLOS.to_dict())
        assert clone == CLOS
        assert cell_digest(clone) == cell_digest(CLOS)
        assert CLOS.to_dict()["topology"] == "fattree:k=8"

    def test_cache_key_distinguishes_fabrics(self):
        leafspine = ExperimentSpec(
            mesh_shape=(128,), pattern="ring", allocator="random",
            load=1.0, seed=1, n_jobs=10, topology="leafspine:8x16",
        )
        assert leafspine.mesh_shape == CLOS.mesh_shape  # same host count
        assert cell_digest(leafspine) != cell_digest(CLOS)

    def test_build_machine_topology(self):
        assert CLOS.build_machine_topology() == FatTree(8)
        mesh_spec = ExperimentSpec(
            mesh_shape=(8, 8), pattern="ring", allocator="mc",
            load=1.0, seed=1, n_jobs=10,
        )
        assert mesh_spec.build_machine_topology() == Mesh(8, 8)
        ls = ExperimentSpec(
            mesh_shape=(1,), pattern="ring", allocator="random",
            load=1.0, seed=1, n_jobs=5,
            topology="leafspine:leaves=4,spines=2,oversub=2",
        )
        assert ls.build_machine_topology() == LeafSpine(4, 2, 2.0)

    def test_bad_topology_string_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                mesh_shape=(1,), pattern="ring", allocator="random",
                load=1.0, seed=1, n_jobs=10, topology="warpdrive:3",
            )

    @pytest.mark.parametrize(
        "topology,allocator",
        [("fattree:k=4", "rack-aware"), ("leafspine:6x3", "pod-local"),
         ("dragonfly:5x3x2", "oversub-aware"), ("fattree:k=4", "random")],
    )
    def test_run_cell_executes_clos_specs(self, topology, allocator):
        spec = ExperimentSpec(
            mesh_shape=(1,), pattern="ring", allocator=allocator,
            load=1.0, seed=1, n_jobs=8, topology=topology,
        )
        result = run_cell(spec)
        assert result.summary.makespan > 0
        # Jobs larger than the small fabrics drop from the trace.
        assert 0 < len(result.jobs) <= 8
        # Determinism in the spec alone, fabric included.
        assert run_cell(spec).summary.makespan == result.summary.makespan
