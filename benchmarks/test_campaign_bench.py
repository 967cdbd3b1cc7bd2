"""Benchmarks for the campaign subsystem (repro.campaign).

The claim: declaring a sweep as a campaign file costs almost nothing on
top of driving :func:`run_many` by hand.  Measured on a ~100-cell
campaign:

* expansion (parse + validate + cross-product + digests) is
  milliseconds,
* a warm ``run_campaign`` -- expansion, manifest bookkeeping and the
  engine's cache pass -- stays within a small factor of a warm
  ``run_many`` over the identical specs,
* on a cold 100-tiny-cell campaign the default ``auto`` execution tier
  is >=2x faster than forcing the Pool path (``tier="process"``): the
  tier refactor's headline claim, at the campaign level,
* a cold 2-runner ``drain`` beats a single-runner ``run`` >=1.8x.

The two wall-clock ratios are ``timing`` tests (see ``conftest.py``):
they run in the benchmarks CI job on >= 4 cores, while their
correctness halves run everywhere.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import expand, loads_campaign, run_campaign
from repro.runner import ResultCache, run_many

#: 4 loads x 5 allocators x 5 seeds = 100 cells on one mesh/pattern.
CAMPAIGN_TEXT = """
[campaign]
name = "bench100"

[defaults]
n_jobs = 10
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.8, 0.6, 0.4]
allocator = ["hilbert+bf", "s-curve+bf", "row-major", "hilbert", "s-curve"]
seed = [1, 2, 3, 4, 5]
"""


class TestCampaignBench:
    def test_expansion_overhead_is_small(self):
        campaign = loads_campaign(CAMPAIGN_TEXT)
        start = time.perf_counter()
        expansion = expand(campaign)
        elapsed = time.perf_counter() - start
        assert len(expansion.cells) == 100
        print(f"\nexpansion of {len(expansion.cells)} cells: {elapsed * 1e3:.1f} ms")
        # pure dict/hash work; generous bound for slow shared CI
        assert elapsed < 2.0

    def test_warm_campaign_run_close_to_direct_run_many(self, tmp_path):
        campaign = loads_campaign(CAMPAIGN_TEXT)
        cache = ResultCache(tmp_path / "cache")

        cold_start = time.perf_counter()
        cold = run_campaign(campaign, cache=cache)
        cold_s = time.perf_counter() - cold_start
        assert cold.misses == 100

        specs = [c.spec for c in cold.expansion.cells]

        direct_start = time.perf_counter()
        direct = run_many(specs, cache=ResultCache(cache.root))
        direct_s = time.perf_counter() - direct_start
        assert all(r.cached for r in direct)

        warm_start = time.perf_counter()
        warm = run_campaign(campaign, cache=ResultCache(cache.root))
        warm_s = time.perf_counter() - warm_start
        assert warm.hits == 100 and warm.misses == 0

        overhead_s = warm_s - direct_s
        print(
            f"\n100-cell campaign: cold {cold_s:.2f}s, warm {warm_s:.3f}s, "
            f"direct run_many warm {direct_s:.3f}s, "
            f"campaign overhead {overhead_s * 1e3:.0f} ms "
            f"({warm_s / max(direct_s, 1e-9):.2f}x direct)"
        )
        # identical numbers through either path
        assert [r.summary for r in warm.results] == [r.summary for r in direct]
        # expansion + manifest bookkeeping must stay a small multiple of
        # the pure cache pass (shared CI boxes are noisy; 4x is ample)
        assert warm_s < direct_s * 4 + 0.5, (
            f"campaign overhead too high: warm {warm_s:.3f}s vs direct {direct_s:.3f}s"
        )


#: 100 tiny cells (a single shared 1-node-job SWF log, 2x2 mesh): the
#: many-tiny-cells campaign shape the execution tiers were built for.
TINY_CAMPAIGN_TEXT = """
[campaign]
name = "tiny100"

[axes]
mesh = ["2x2"]
pattern = ["ring"]
load = [1.0, 0.8, 0.6, 0.4]
allocator = ["row-major", "s-curve", "hilbert", "hilbert+bf", "s-curve+bf"]
seed = [1, 2, 3, 4, 5]

[[axes.workload]]
kind = "swf"
path = "one-job.swf"
"""

#: Worker count tuned for the big campaigns; auto's job is to ignore it
#: for a grid this small.
TINY_JOBS = 8


def _tiny_campaign(tmp_path):
    """The tiny campaign over its shared workload, one 1-node job (the
    smallest real cell) written as an SWF log next to it.

    An swf workload needs no store: a cache-less run carries its one
    row inline, and a cached run interns it into that cache's store.
    """
    from repro.sched.job import Job
    from repro.trace.swf import write_swf

    write_swf([Job(1, 0.0, 1, 10.0)], tmp_path / "one-job.swf")
    return loads_campaign(TINY_CAMPAIGN_TEXT, base_dir=tmp_path)


def _auto_vs_forced_process(campaign):
    """Cold cache-less runs of ``campaign`` through ``auto`` and the
    forced ``process`` tier: ``(auto run, forced run, auto s, forced s)``,
    each time the best of two."""
    run_campaign(campaign)  # absorb one-time import/numpy warm-up
    auto_s, forced_s = float("inf"), float("inf")
    for _ in range(2):
        start = time.perf_counter()
        auto = run_campaign(campaign, jobs=TINY_JOBS, tier="auto")
        auto_s = min(auto_s, time.perf_counter() - start)
        start = time.perf_counter()
        forced = run_campaign(campaign, jobs=TINY_JOBS, tier="process")
        forced_s = min(forced_s, time.perf_counter() - start)
    return auto, forced, auto_s, forced_s


class TestTierCampaignBench:
    def test_auto_tier_cold_campaign_2x_over_forced_process(
        self, tmp_path
    ):
        """Correctness half of the tentpole claim: a cold 100-tiny-cell
        campaign resolves ``auto`` to inline (probe -> inline), forcing
        ``process`` really uses the Pool, and both give identical
        results.  The >=2x wall-clock half is
        :meth:`test_wall_clock_auto_tier_cold_campaign_2x_over_forced_process`.

        Run without artifact persistence so the comparison isolates
        *dispatch* -- the thing tiers control; artifact/manifest writes
        cost the same in every tier (the cached variant below reports
        that picture).
        """
        auto, forced, _, _ = _auto_vs_forced_process(
            _tiny_campaign(tmp_path)
        )
        assert auto.tier_decision is not None and auto.tier_decision.tier == "inline"
        assert forced.tier_decision is not None
        assert forced.tier_decision.tier == "process"
        assert len(auto.results) == 100
        assert [r.summary for r in auto.results] == [r.summary for r in forced.results]

    @pytest.mark.timing
    def test_wall_clock_auto_tier_cold_campaign_2x_over_forced_process(
        self, tmp_path
    ):
        """The cold 100-tiny-cell campaign runs >=2x faster through
        ``auto`` than through the forced ``process`` tier.  Asserted only
        where a Pool cannot amortize (at most 4 cores), matching the
        engine benchmarks' gating."""
        import multiprocessing

        auto, _, auto_s, forced_s = _auto_vs_forced_process(
            _tiny_campaign(tmp_path)
        )
        speedup = forced_s / auto_s if auto_s > 0 else float("inf")
        print(
            f"\ncold 100-tiny-cell campaign: auto {auto_s * 1e3:.0f} ms "
            f"({auto.tier_decision.describe()}), forced process "
            f"(jobs={TINY_JOBS}) {forced_s * 1e3:.0f} ms, speedup {speedup:.2f}x"
        )
        if multiprocessing.cpu_count() <= 4:
            assert speedup >= 2.0, (
                f"auto tier should beat forced process >=2x on a cold tiny-cell "
                f"campaign, got {speedup:.2f}x ({auto_s:.3f}s vs {forced_s:.3f}s)"
            )

    def test_tiers_identical_through_the_cache_too(self, tmp_path):
        """With persistence on, artifact writes dominate and are
        tier-independent; results and manifests must still agree."""
        cache_a = ResultCache(tmp_path / "a")
        cache_p = ResultCache(tmp_path / "p")
        campaign = _tiny_campaign(tmp_path)
        start = time.perf_counter()
        auto = run_campaign(campaign, cache=cache_a, jobs=4)
        auto_s = time.perf_counter() - start
        start = time.perf_counter()
        forced = run_campaign(campaign, cache=cache_p, jobs=4, tier="process")
        forced_s = time.perf_counter() - start
        assert [r.summary for r in auto.results] == [r.summary for r in forced.results]
        assert auto.misses == forced.misses == 100
        print(
            f"\ncold cached campaign: auto {auto_s * 1e3:.0f} ms, "
            f"forced process {forced_s * 1e3:.0f} ms "
            f"(artifact writes are tier-independent)"
        )


#: 100 cells whose per-cell compute cost is a template parameter.  The
#: drain benchmark needs two sizes: tiny cells to pin the protocol's
#: correctness everywhere (fast), and ~150 ms cells on multi-core hosts
#: so compute dominates the fleet's extra start-up/lease overhead and
#: the wall-clock claim is actually measurable.
DRAIN_CAMPAIGN_TEXT = """
[campaign]
name = "drain100"

[defaults]
n_jobs = {n_jobs}
runtime_scale = 0.02

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.8, 0.6, 0.4]
allocator = ["hilbert+bf", "s-curve+bf", "row-major", "hilbert", "s-curve"]
seed = [1, 2, 3, 4, 5]
"""


def _solo_run_and_fleet_drain(tmp_path, n_jobs: int):
    """A cold single-runner ``run --jobs 1`` and a cold 2-runner ``drain``
    of the same 100-cell campaign, both through the CLI so every real
    cost counts: process start-up, manifest flushes, lease traffic.

    Returns ``(campaign text, solo root, fleet root, solo s, fleet s)``.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    campaign_text = DRAIN_CAMPAIGN_TEXT.format(n_jobs=n_jobs)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    campaign_file = tmp_path / "drain100.toml"
    campaign_file.write_text(campaign_text)
    solo_root = tmp_path / "solo"
    fleet_root = tmp_path / "fleet"

    def _cli(*args) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.campaign", *args],
            env=env, check=True, capture_output=True,
        )
        return time.perf_counter() - start

    solo_s = _cli(
        "run", str(campaign_file), "--jobs", "1",
        "--cache-dir", str(solo_root), "--quiet",
    )
    fleet_s = _cli(
        "drain", str(campaign_file), "--runners", "2",
        "--cache-dir", str(fleet_root), "--quiet",
    )
    return campaign_text, solo_root, fleet_root, solo_s, fleet_s


class TestDrainBench:
    def test_cold_two_runner_drain_matches_single_runner_run(self, tmp_path):
        """Correctness half of the drain claim: a cold 2-runner ``drain``
        of a 100-cell campaign leaves byte-identical artifacts and cache
        keys to a single-runner ``run --jobs 1``, with **zero duplicated
        compute** between the runners.  Tiny cells keep it fast; the
        >=1.8x wall-clock half is
        :meth:`test_wall_clock_two_runner_drain_beats_single_runner_run`.
        """
        from repro.campaign import expand
        from repro.campaign.manifest import CampaignManifest, manifest_path

        campaign_text, solo_root, fleet_root, _, _ = _solo_run_and_fleet_drain(
            tmp_path, n_jobs=10
        )

        # byte-identical artifacts and cache keys across the two roots
        solo_files = {p.name: p.read_bytes() for p in solo_root.glob("*.json.gz")}
        fleet_files = {p.name: p.read_bytes() for p in fleet_root.glob("*.json.gz")}
        assert len(solo_files) == 100
        assert solo_files == fleet_files

        # every cell done exactly once: drain-run misses sum to the
        # campaign size -- no cell was computed by both runners
        campaign = loads_campaign(campaign_text)
        expansion = expand(campaign)
        manifest = CampaignManifest.open(
            manifest_path(fleet_root, campaign.name, expansion.digest),
            campaign.name, expansion.digest,
        )
        counts = manifest.counts([c.digest for c in expansion.cells])
        assert counts["done"] == 100
        drain_runs = [r for r in manifest.runs if r.get("mode") == "drain"]
        assert len(drain_runs) == 2
        assert sum(r["misses"] for r in drain_runs) == 100
        assert {r["runner"] for r in drain_runs} == set(manifest.runners)

    @pytest.mark.timing
    def test_wall_clock_two_runner_drain_beats_single_runner_run(self, tmp_path):
        """A cold 2-runner ``drain`` of 100 ~150 ms cells beats a
        single-runner ``run --jobs 1`` by >=1.8x on wall clock: compute
        dominates the fleet's extra start-up and lease overhead."""
        _, solo_root, fleet_root, solo_s, fleet_s = _solo_run_and_fleet_drain(
            tmp_path, n_jobs=400
        )
        solo_files = {p.name: p.read_bytes() for p in solo_root.glob("*.json.gz")}
        fleet_files = {p.name: p.read_bytes() for p in fleet_root.glob("*.json.gz")}
        assert len(solo_files) == 100 and solo_files == fleet_files

        speedup = solo_s / fleet_s if fleet_s > 0 else float("inf")
        print(
            f"\ncold 100-cell campaign: single-runner run {solo_s:.2f}s, "
            f"2-runner drain {fleet_s:.2f}s, speedup {speedup:.2f}x"
        )
        assert speedup >= 1.8, (
            f"2-runner drain should beat single-runner run >=1.8x "
            f"on a multi-core host, got {speedup:.2f}x "
            f"({fleet_s:.2f}s vs {solo_s:.2f}s)"
        )
