"""Cross-tier determinism and the auto-tier policy (repro.runner.engine).

The contract the tentpole refactor must keep: execution tiers are a
*transport* choice.  For the same spec list, every tier -- and the auto
policy, whatever it picks -- produces identical results, identical cache
keys, and **byte-identical** artifact files.
"""

import os

import pytest

from repro.runner import (
    ResultCache,
    TIERS,
    TierDecision,
    auto_jobs,
    cell_digest,
    choose_tier,
    run_many,
    sweep_specs,
)
from repro.runner import engine as engine_mod
from repro.trace.store import default_store

TRACE = tuple((i, 40.0 * i, 2 ** (i % 4), 25.0) for i in range(24))

#: A mixed grid: explicit-trace cells (refs that workers hydrate from the
#: store) plus synthetic cells (which never touch one).  ``store`` is the
#: cache's workload store, or ``None`` for the default store a cache-less
#: run hydrates from.
def _grid(store=None):
    digest = (store if store is not None else default_store()).put(TRACE)
    refs = sweep_specs(
        (8, 8), ("ring",), (1.0, 0.5), ("mc", "hilbert+bf"), seed=3, trace_ref=digest
    )
    synth = sweep_specs(
        (8, 8), ("all-to-all",), (1.0,), ("s-curve+bf",), seed=2, n_jobs=20,
        runtime_scale=0.01,
    )
    return refs + synth


FORCED_TIERS = ("inline", "process")


class TestCrossTierDeterminism:
    def test_all_tiers_byte_identical_artifacts_and_keys(self, tmp_path):
        """The acceptance pin: same spec list, both forced tiers, two
        caches -- identical artifact filenames (cache keys) and identical bytes
        in every file."""
        artifacts = {}
        for tier in FORCED_TIERS:
            cache = ResultCache(tmp_path / tier.replace("+", "-"))
            run_many(_grid(cache.traces), jobs=2, cache=cache, tier=tier)
            artifacts[tier] = {
                p.name: p.read_bytes() for p in cache.root.glob("*.json.gz")
            }
        names = {tier: sorted(files) for tier, files in artifacts.items()}
        assert names["inline"] == names["process"]
        assert len(names["inline"]) == len(set(cell_digest(s) for s in _grid()))
        for name in names["inline"]:
            assert (
                artifacts["inline"][name] == artifacts["process"][name]
            ), f"artifact {name} differs across tiers"

    def test_auto_matches_forced_tiers(self, tmp_path):
        auto_cache = ResultCache(tmp_path / "auto")
        run_many(_grid(auto_cache.traces), jobs=2, cache=auto_cache, tier="auto")
        inline_cache = ResultCache(tmp_path / "inline")
        run_many(_grid(inline_cache.traces), jobs=2, cache=inline_cache, tier="inline")
        auto_files = {p.name: p.read_bytes() for p in auto_cache.root.glob("*.json.gz")}
        inline_files = {
            p.name: p.read_bytes() for p in inline_cache.root.glob("*.json.gz")
        }
        assert auto_files == inline_files

    def test_results_identical_across_all_tiers(self):
        baseline = run_many(_grid(), tier="inline")
        cells = run_many(_grid(), jobs=3, tier="process")
        assert [c.summary for c in cells] == [c.summary for c in baseline]
        assert [c.jobs for c in cells] == [c.jobs for c in baseline]

    def test_artifact_bytes_stable_across_repeat_runs(self, tmp_path):
        """Artifacts are a pure function of the cell: re-running the same
        cold grid (fresh cache) writes the identical files."""
        first = ResultCache(tmp_path / "one")
        run_many(_grid(first.traces), cache=first)
        second = ResultCache(tmp_path / "two")
        run_many(_grid(second.traces), cache=second)
        a = {p.name: p.read_bytes() for p in first.root.glob("*.json.gz")}
        b = {p.name: p.read_bytes() for p in second.root.glob("*.json.gz")}
        assert a == b


class TestAutoPolicy:
    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown execution tier"):
            run_many(_grid()[:1], tier="gpu")

    def test_only_inline_and_process_tiers(self):
        """One Pool transport: the engine and the CLIs accept exactly
        ``TIERS`` and reject any other name."""
        from repro.experiments.__main__ import main

        assert TIERS == ("auto", "inline", "process")
        with pytest.raises(SystemExit) as exit_info:
            main(["fig11", "--tier", "shm"])
        assert exit_info.value.code == 2

    def test_none_tier_means_auto(self):
        """Drivers thread an unset --tier flag straight through as None."""
        decisions = []
        run_many(_grid()[:2], tier=None, on_decision=decisions.append)
        assert decisions[0].requested == "auto"

    def test_choose_tier_inline_for_small_estimates(self):
        decision = choose_tier(100, jobs=4, est_cell_s=1e-4)
        assert decision.tier == "inline"
        assert decision.est_cell_s == 1e-4

    def test_choose_tier_process_for_big_estimates(self):
        assert choose_tier(100, jobs=4, est_cell_s=0.5).tier == "process"

    def test_choose_tier_single_worker_is_inline(self):
        assert choose_tier(100, jobs=1, est_cell_s=10.0).tier == "inline"
        assert choose_tier(1, jobs=8, est_cell_s=10.0).tier == "inline"

    def test_auto_probe_decides_and_reports(self):
        decisions = []
        grid = _grid()
        cells = run_many(grid, jobs=2, tier="auto", on_decision=decisions.append)
        assert len(cells) == len(grid)
        (decision,) = decisions
        assert isinstance(decision, TierDecision)
        assert decision.requested == "auto"
        assert decision.tier in ("inline", "process")
        assert decision.est_cell_s is not None and decision.est_cell_s > 0
        assert "probed" in decision.reason

    def test_caller_estimate_skips_probe(self, monkeypatch):
        """With est_cell_s given, no probe runs: the decision reflects
        the estimate directly."""
        monkeypatch.setattr(engine_mod, "run_cell", _explode_probe_guard())
        decisions = []
        grid = _grid()[:3]
        with pytest.raises(AssertionError, match="computed"):
            # est forces inline, which computes via run_cell -> explode;
            # the point is the *decision* was made before any compute.
            run_many(grid, jobs=2, tier="auto", est_cell_s=1e-6,
                     on_decision=decisions.append)
        assert decisions and decisions[0].tier == "inline"
        assert "inline budget" in decisions[0].reason

    def test_auto_with_big_estimate_fans_out(self, tmp_path):
        decisions = []
        cache = ResultCache(tmp_path / "c")
        grid = _grid(cache.traces)
        cells = run_many(
            grid, jobs=2, cache=cache, tier="auto", est_cell_s=5.0,
            on_decision=decisions.append,
        )
        # ref cells fan out like any other: workers hydrate them from
        # the cache's store
        assert decisions[0].tier == "process"
        assert len(cells) == len(grid)


class TestAutoJobs:
    """``jobs=None``: the worker count is sized to the host and the work."""

    def test_degenerate_inputs_get_one_worker(self):
        assert auto_jobs(0) == 1
        assert auto_jobs(100, est_cell_s=0.0) == 1

    def test_clamped_to_host_cpus_and_pending(self):
        cpus = getattr(os, "process_cpu_count", os.cpu_count)() or 1
        assert auto_jobs(10_000) == cpus
        assert auto_jobs(2) <= 2
        assert auto_jobs(10_000, est_cell_s=60.0) == cpus

    def test_small_estimates_scale_the_count_down(self):
        # one inline-budget of total compute: fan-out loses to a single
        # worker no matter how many CPUs the host has
        est = engine_mod.AUTO_INLINE_BUDGET_S / 100
        assert auto_jobs(100, est_cell_s=est) == 1

    def test_run_many_jobs_none_autotunes_and_stays_deterministic(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        grid = _grid(cache.traces)
        cells = run_many(grid, jobs=None, cache=cache)
        assert len(cells) == len(grid)
        warm = run_many(grid, jobs=None, cache=ResultCache(cache.root))
        assert [c.summary for c in warm] == [c.summary for c in cells]


def _explode_probe_guard():
    def _explode(spec, store=None):
        raise AssertionError(f"computed {spec.pattern}")

    return _explode
