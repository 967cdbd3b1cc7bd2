"""The bundled campaign files reproduce the hand-written drivers exactly.

Two layers of pinning:

* **spec equality** -- each ported campaign expands to the *identical*
  ``ExperimentSpec`` list the old driver built (same cells, same order),
  which implies identical cache keys: porting the drivers onto campaign
  files cannot invalidate a single pre-existing artifact;
* **golden numbers** -- running the campaigns reproduces the checked-in
  golden snapshots (restricted to the snapshot panels to keep the test
  fast), so the campaign execution path itself -- expansion, interning,
  manifest bookkeeping -- is behaviour-neutral.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import bundled_campaign_names, bundled_campaign_path, expand, load_campaign, run_campaign
from repro.experiments.config import SMALL
from repro.experiments.sweep import PAPER_ALLOCATORS, PAPER_PATTERNS
from repro.runner import ResultCache, sweep_specs
from repro.trace.store import TraceStore

GOLDEN_DIR = Path(__file__).parent.parent / "experiments" / "data"

RTOL = 1e-6


def _bundled(name):
    return load_campaign(bundled_campaign_path(name))


class TestBundledInventory:
    def test_expected_campaigns_ship(self):
        names = bundled_campaign_names()
        for expected in (
            "clos", "contiguous", "fairness", "fig07", "fig08", "fig09", "fig11",
            "fig12", "figswf", "hybrid", "multishape", "smoke",
        ):
            assert expected in names

    @pytest.mark.parametrize("name", bundled_campaign_names())
    def test_every_bundled_campaign_loads_and_expands(self, name, tmp_path):
        expansion = expand(_bundled(name), store=TraceStore(tmp_path / "traces"))
        assert expansion.cells


def _grid(
    shape, allocators, patterns=PAPER_PATTERNS, torus=False, loads=SMALL.loads, **workload
):
    """A figure grid at ``small`` scale, built straight from the engine."""
    if not workload:
        workload = dict(n_jobs=SMALL.n_jobs, runtime_scale=SMALL.runtime_scale)
    return sweep_specs(
        shape, patterns, loads, allocators, seed=SMALL.seed, torus=torus,
        **workload,
    )


#: fig12's strategies: the paper's with a 3-D ordering.
ALLOCATORS_3D = ("row-major", "s-curve", "s-curve+bf", "hilbert", "hilbert+bf", "hilbert+ff")


class TestSpecEquality:
    def test_fig07_campaign_equals_driver_grid(self):
        driver = _grid((16, 22), PAPER_ALLOCATORS)
        campaign = [c.spec for c in expand(_bundled("fig07")).cells]
        assert campaign == driver

    def test_fig08_campaign_equals_driver_grid(self):
        driver = _grid((16, 16), PAPER_ALLOCATORS)
        campaign = [c.spec for c in expand(_bundled("fig08")).cells]
        assert campaign == driver

    def test_fig12_campaign_equals_driver_grid(self):
        driver = _grid((8, 8, 8), ALLOCATORS_3D, torus=True) + _grid(
            (16, 16), ALLOCATORS_3D
        )
        campaign = [c.spec for c in expand(_bundled("fig12")).cells]
        assert campaign == driver

    def test_figswf_campaign_equals_driver_grid(self, tmp_path):
        from repro.trace.archive import bundled_mini_swf, prepare_trace, trace_rows
        from repro.trace.swf import parse_swf

        parsed, _ = parse_swf(bundled_mini_swf())
        prepared, _ = prepare_trace(
            parsed,
            n_jobs=SMALL.n_jobs,
            time_scale=SMALL.runtime_scale,
            max_size=512,
            oversized="drop",
        )
        store = TraceStore(tmp_path / "traces")
        digest = store.put(trace_rows(prepared))
        driver = []
        for shape, torus in (((16, 16), False), ((8, 8, 8), True)):
            driver += _grid(
                shape,
                ("s-curve", "s-curve+bf", "hilbert", "hilbert+bf"),
                patterns=("all-to-all",),
                torus=torus,
                trace_ref=digest,
            )
        campaign = [c.spec for c in expand(_bundled("figswf"), store=store).cells]
        assert campaign == driver

    def test_fig09_campaign_equals_driver_grid(self, tmp_path):
        """The boosted trace replaces the workload axis as a ``ref``; the
        cells are the hand-built grid's."""
        from repro.campaign.model import TraceSource
        from repro.experiments.metric_correlation import _boosted_trace
        from repro.mesh.topology import Mesh
        from repro.trace.archive import trace_rows

        store = TraceStore(tmp_path / "traces")
        digest = store.put(trace_rows(_boosted_trace(SMALL, Mesh(16, 16))))
        driver = _grid(
            (16, 16), PAPER_ALLOCATORS, patterns=("n-body",), loads=(1.0,),
            trace_ref=digest,
        )
        campaign = _bundled("fig09").scaled(SMALL)
        campaign.axes["workload"] = [TraceSource(kind="ref", digest=digest)]
        cells = [c.spec for c in expand(campaign, store=store).cells]
        assert cells == driver

    def test_fig11_campaign_equals_driver_grid(self):
        driver = _grid(
            (16, 16),
            (
                "s-curve+bf", "hilbert+bf", "hilbert+ff", "h-indexing+bf",
                "s-curve+ff", "h-indexing+ff", "mc", "mc1x1", "s-curve",
                "h-indexing", "gen-alg", "hilbert",
            ),
            patterns=("all-to-all",),
            loads=(1.0,),
        )
        campaign = [c.spec for c in expand(_bundled("fig11")).cells]
        assert campaign == driver

    def test_hybrid_campaign_equals_driver_grid(self):
        driver = _grid(
            (16, 16),
            ("hybrid", "mc", "hilbert+bf", "gen-alg", "s-curve", "mc1x1"),
            patterns=("mixed(a2a+nbody)",),
            loads=(1.0,),
        )
        campaign = [c.spec for c in expand(_bundled("hybrid")).cells]
        assert campaign == driver

    def test_contiguous_campaign_equals_driver_grid(self):
        driver = _grid(
            (16, 16), ("contiguous", "hilbert+bf"), patterns=("all-to-all",), loads=(1.0,)
        )
        campaign = [c.spec for c in expand(_bundled("contiguous")).cells]
        assert campaign == driver

    def test_single_load_campaigns_keep_their_load_at_every_scale(self):
        from repro.experiments.config import FULL

        for name in ("fig09", "fig11", "hybrid", "contiguous"):
            assert _bundled(name).scaled(FULL).axes["load"] == [1.0]
        assert _bundled("fig08").scaled(FULL).axes["load"] == list(FULL.loads)


class TestMultishape:
    """The genuinely new campaign no hand-written driver covers."""

    def test_shapes_allocators_and_filters(self):
        expansion = expand(_bundled("multishape"))
        meshes = {c.coords["mesh"] for c in expansion.cells}
        assert meshes == {"16x16", "32x32", "16x8x4t"}
        # non-cubic torus cells exist and use 3-D-capable allocators only
        torus_cells = expansion.select(mesh="16x8x4t")
        assert torus_cells
        from repro.core.registry import allocator_names_3d

        assert {c.coords["allocator"] for c in torus_cells} <= set(allocator_names_3d())
        # the exclude trimmed +ss variants from the random pattern
        assert not expansion.select(pattern="random", allocator="hilbert+ss")
        assert expansion.select(pattern="all-to-all", allocator="hilbert+ss")
        # the override grew the trace on the 1024-node mesh
        for cell in expansion.cells:
            assert cell.spec.n_jobs == (300 if cell.coords["mesh"] == "32x32" else 150)
        # full 3-D-capable set x 2 patterns x 3 loads x 3 meshes, minus excludes
        assert len(expansion.cells) == 3 * (36 + 27)


class TestGoldenViaCampaign:
    """Bundled campaigns reproduce the golden snapshots byte-for-byte
    (same cells -> same artifacts; tolerance only absorbs float noise)."""

    def _panel_via_campaign(self, name, tmp_path, **restrict) -> dict[str, float]:
        campaign = _bundled(name)
        campaign.include = [restrict] if restrict else []
        run = run_campaign(campaign, cache=ResultCache(tmp_path / "cache"))
        return {
            f"{r.summary.allocator}@{r.summary.load_factor:g}": r.summary.mean_response
            for r in run.results
        }

    def _assert_panel(self, actual, expected):
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == pytest.approx(expected[key], rel=RTOL), key

    def test_fig07_golden_via_campaign(self, tmp_path):
        golden = json.loads((GOLDEN_DIR / "fig7_small_golden.json").read_text())
        actual = self._panel_via_campaign("fig07", tmp_path, pattern="all-to-all")
        self._assert_panel(actual, golden["mean_response"])

    def test_fig12_golden_via_campaign(self, tmp_path):
        golden = json.loads((GOLDEN_DIR / "fig12_small_golden.json").read_text())
        actual = self._panel_via_campaign(
            "fig12", tmp_path, pattern="all-to-all", mesh="8x8x8t"
        )
        self._assert_panel(actual, golden["mean_response"])

    def test_figswf_golden_via_campaign(self, tmp_path):
        golden = json.loads((GOLDEN_DIR / "figswf_golden.json").read_text())
        campaign = _bundled("figswf")
        run = run_campaign(campaign, cache=ResultCache(tmp_path / "cache"))
        groups = run.sweep_results()
        for mesh_label, machine in (("16x16", "mesh2d"), ("8x8x8t", "torus")):
            actual = {
                f"{c.allocator}@{c.load_factor:g}": c.mean_response
                for c in groups[mesh_label][0].cells
            }
            self._assert_panel(actual, golden["scales"]["small"][machine])
