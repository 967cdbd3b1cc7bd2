"""Tests for the experiment drivers (tiny scale: wiring, not statistics)."""

import numpy as np
import pytest
from oracles.mc import mc_anchor_costs

from repro.experiments import config
from repro.experiments import (
    fig01_testsuite,
    fig02_curves,
    fig04_shells,
    fig05_nbody,
    fig06_truncation,
    fig11_contiguity,
    metric_correlation,
)
from repro.experiments.sweep import (
    PAPER_ALLOCATORS,
    PAPER_PATTERNS,
    report_sweep,
)

TINY = config.Scale(
    name="tiny",
    n_jobs=40,
    runtime_scale=0.01,
    loads=(1.0, 0.4),
    fig1_repetitions=1,
    fig1_samples=4,
    fig9_min_samples=4,
    seed=2,
)


class TestScales:
    def test_get_scale(self):
        assert config.get_scale("small").name == "small"
        assert config.get_scale("full").n_jobs == 6087
        with pytest.raises(KeyError):
            config.get_scale("huge")

    def test_with_seed(self):
        assert config.SMALL.with_seed(9).seed == 9
        assert config.SMALL.with_seed(9).n_jobs == config.SMALL.n_jobs

    def test_paper_loads_in_full_scale(self):
        assert config.FULL.loads == (1.0, 0.8, 0.6, 0.4, 0.2)
        assert config.FULL.fig1_repetitions == 100


class TestFig1:
    def test_produces_monotone_relationship(self):
        result = fig01_testsuite.run(TINY)
        assert len(result.running_time) == TINY.fig1_samples
        assert result.fit.slope > 0
        assert "linear fit" in fig01_testsuite.report(result)


class TestFig2:
    def test_three_curves(self):
        result = fig02_curves.run(TINY)
        assert set(result.curves) == {"s-curve", "hilbert", "h-indexing"}
        report = fig02_curves.report(result)
        assert "(a) S-curve" in report and "(c) H-indexing" in report


class TestFig4:
    def test_shells_and_costs(self):
        result = fig04_shells.run(TINY)
        assert result.anchor_costs[result.best_anchor] == min(
            result.anchor_costs.values()
        )
        assert "#" in result.art

    @pytest.mark.parametrize("seed", [None, 0, 1, 5])
    def test_report_matches_shell_matrix_costs(self, seed, monkeypatch):
        """The summed-area-table costs print the same report, costs and
        best anchor as the oracle's per-anchor shell-matrix costs."""
        result = fig04_shells.run(TINY, seed=seed)
        monkeypatch.setattr(
            fig04_shells.MCAllocator, "anchor_costs", staticmethod(mc_anchor_costs)
        )
        expected = fig04_shells.run(TINY, seed=seed)
        assert list(result.anchor_costs.items()) == list(expected.anchor_costs.items())
        assert result.best_anchor == expected.best_anchor
        assert fig04_shells.report(result) == fig04_shells.report(expected)


class TestFig5:
    def test_matches_paper_counts(self):
        result = fig05_nbody.run(TINY)
        assert result.p == 15
        assert result.n_ring_subphases == 7
        assert "chordal" in fig05_nbody.report(result)


class TestFig6:
    def test_gaps_reported(self):
        result = fig06_truncation.run(TINY)
        for name in ("hilbert", "h-indexing"):
            assert result.gaps[name], name
        assert "gaps" in fig06_truncation.report(result)


class TestSweep:
    def test_single_pattern_sweep(self):
        from repro.campaign import Campaign, run_campaign

        campaign = Campaign(
            name="single-pattern",
            axes={
                "mesh": ["16x16"],
                "pattern": ["all-to-all"],
                "load": list(TINY.loads),
                "allocator": ["hilbert+bf", "mc1x1"],
            },
            defaults={
                "seed": TINY.seed,
                "n_jobs": TINY.n_jobs,
                "runtime_scale": TINY.runtime_scale,
            },
        )
        (results,) = run_campaign(campaign).sweep_results().values()
        assert len(results) == 1
        panel = results[0]
        assert len(panel.cells) == 2 * len(TINY.loads)
        series = panel.series()
        assert set(series) == {"hilbert+bf", "mc1x1"}
        assert "mean_response" in report_sweep(results)

    def test_paper_grids_defined(self):
        assert len(PAPER_ALLOCATORS) == 9
        assert PAPER_PATTERNS == ("all-to-all", "n-body", "random")

    def test_custom_trace_passthrough(self, tmp_path):
        from repro.runner import ResultCache, run_many, sweep_specs
        from repro.sched.job import Job
        from repro.trace.archive import trace_rows

        trace = [Job(i, 50.0 * i, 4, 10.0) for i in range(5)]
        cache = ResultCache(tmp_path / "c")
        specs = sweep_specs(
            (8, 8),
            ("ring",),
            TINY.loads,
            ("hilbert+bf",),
            seed=TINY.seed,
            trace_ref=cache.traces.put(trace_rows(trace)),
        )
        assert run_many(specs, cache=cache)[0].summary.n_jobs == 5


class TestMetricCorrelation:
    def test_boost_gives_enough_samples(self):
        result = metric_correlation.run(TINY)
        assert result.n_jobs >= TINY.fig9_min_samples
        assert np.isfinite(result.r_pairwise)
        assert np.isfinite(result.r_message)
        assert "Pearson r" in metric_correlation.report_fig9(result)
        assert "message distance" in metric_correlation.report_fig10(result)

    def test_cacheless_trace_run_writes_no_artifact(self, tmp_path, monkeypatch):
        """Without a cache the trace goes to a scratch workload store; the
        run writes no artifact and no lease, and its tables match a cached
        run's."""
        from repro.campaign.lease import LeaseDir
        from repro.runner import ResultCache

        cached = metric_correlation.run(TINY, cache=ResultCache(tmp_path))
        puts = []
        put = ResultCache.put
        monkeypatch.setattr(
            ResultCache, "put", lambda self, r: (puts.append(r), put(self, r))
        )
        monkeypatch.setattr(
            LeaseDir, "__init__", lambda *a, **k: pytest.fail("lease dir made")
        )
        bare = metric_correlation.run(TINY, cache=None)
        assert puts == []
        for report in (
            metric_correlation.report_fig9,
            metric_correlation.report_fig10,
        ):
            assert report(bare) == report(cached)


class TestFig11:
    def test_twelve_rows(self):
        result = fig11_contiguity.run(TINY)
        rows = result.rows()
        assert len(rows) == 12
        pct = [r["% contiguous"] for r in rows]
        assert pct == sorted(pct, reverse=True)
        assert "Algorithm" in fig11_contiguity.report(result)
