"""Interrupt/resume coverage: a campaign killed mid-run resumes warm.

The contract: artifacts are content-addressed and land before their
cell is recorded, and the manifest is flushed at most once per second
while cells complete plus once when the run ends (an exception
included) -- so whatever kills a ``run`` (a signal, an exception, or
simply ``--limit N`` running out), the next ``run`` serves every
completed cell from the cache, recomputes nothing, and never rewrites
an existing artifact file.  A flush lost to a hard kill is benign: the
cells it would have recorded are served as cache hits.
"""

import pytest

from repro.campaign import (
    CampaignManifest,
    expand,
    loads_campaign,
    manifest_path,
    run_campaign,
)
from repro.runner import ResultCache

CAMPAIGN = """
[campaign]
name = "interrupt"

[defaults]
seed = 4
n_jobs = 8
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.8, 0.6]
allocator = ["hilbert+bf", "s-curve"]
"""

N_CELLS = 6


class _Killed(RuntimeError):
    """Stands in for SIGKILL at a cell boundary (manifest already flushed)."""


def _artifact_state(cache: ResultCache) -> dict:
    """(bytes, mtime_ns) of every artifact -- rewrites change mtime_ns."""
    return {
        p.name: (p.read_bytes(), p.stat().st_mtime_ns)
        for p in cache.root.glob("*.json.gz")
    }


class TestKillMidRun:
    def test_exception_mid_run_resumes_without_recompute(self, tmp_path):
        """Kill the run after 2 computed cells; the resume must compute
        exactly the other 4 and leave the first 2 artifacts untouched."""
        cache = ResultCache(tmp_path / "cache")

        def killer(done, total, cell):
            if done == 2:
                raise _Killed("simulated kill at a cell boundary")

        with pytest.raises(_Killed):
            run_campaign(loads_campaign(CAMPAIGN), cache=cache, progress=killer)

        # the manifest on disk survived the kill with exactly 2 cells done
        campaign = loads_campaign(CAMPAIGN)
        expansion = expand(campaign, store=cache.traces)
        path = manifest_path(cache.root, campaign.name, expansion.digest)
        assert path.is_file()
        manifest = CampaignManifest.open(path, campaign.name, expansion.digest)
        assert len(manifest.done_digests()) == 2
        before = _artifact_state(cache)
        assert len(before) == 2

        resumed = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache.root)
        )
        assert resumed.hits == 2 and resumed.misses == N_CELLS - 2
        after = _artifact_state(ResultCache(cache.root))
        assert len(after) == N_CELLS
        # no duplicate writes: the surviving artifacts are bit- and
        # mtime-identical (a rewrite would bump mtime_ns even with equal bytes)
        for name, state in before.items():
            assert after[name] == state
        counts = resumed.manifest.counts([c.digest for c in resumed.expansion.cells])
        assert counts["done"] == N_CELLS and counts["pending"] == 0

    def test_limit_interrupt_then_full_resume(self, tmp_path):
        """The --limit N increment is the sanctioned interruption: each
        invocation computes fresh cells only, and the full resume serves
        every prior cell warm with no artifact rewrites."""
        cache_root = tmp_path / "cache"
        first = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache_root), limit=2
        )
        assert first.misses == 2 and first.hits == 0
        state_after_first = _artifact_state(ResultCache(cache_root))

        second = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache_root), limit=2
        )
        assert second.misses == 2 and second.hits == 0
        assert {c.digest for c in second.selected}.isdisjoint(
            {c.digest for c in first.selected}
        )
        state_after_second = _artifact_state(ResultCache(cache_root))
        for name, state in state_after_first.items():
            assert state_after_second[name] == state

        full = run_campaign(loads_campaign(CAMPAIGN), cache=ResultCache(cache_root))
        assert full.hits == 4 and full.misses == N_CELLS - 4
        final_state = _artifact_state(ResultCache(cache_root))
        for name, state in state_after_second.items():
            assert final_state[name] == state

    def test_resumed_auto_tier_calibrates_from_manifest(self, tmp_path):
        """A resumed run reuses the manifest's recorded timings instead
        of probing: its decision carries an estimate but no probe."""
        cache = ResultCache(tmp_path / "cache")
        run_campaign(loads_campaign(CAMPAIGN), cache=cache, limit=2)
        resumed = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache.root), jobs=2
        )
        decision = resumed.tier_decision
        assert decision is not None
        assert decision.est_cell_s is not None
        assert "probed" not in decision.reason

    def test_subprocess_sigterm_mid_run_resumes_warm(self, tmp_path):
        """A real kill: SIGTERM a `python -m repro.campaign run` once its
        first cells land, then resume and assert nothing recomputes."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from pathlib import Path

        campaign_file = tmp_path / "interrupt.toml"
        campaign_file.write_text(CAMPAIGN)
        cache_dir = tmp_path / "cache"
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign", "run",
                str(campaign_file), "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # wait for the first progress line (=> >= 1 cell done + flushed)
        line = proc.stdout.readline()
        deadline = time.time() + 60
        while "[1/" not in line and line and time.time() < deadline:
            line = proc.stdout.readline()
        proc.terminate()
        proc.wait(timeout=30)

        cache = ResultCache(cache_dir)
        done_before = len(_artifact_state(cache))
        assert done_before >= 1

        resumed = run_campaign(loads_campaign(CAMPAIGN), cache=cache)
        assert resumed.misses == N_CELLS - resumed.hits
        assert resumed.hits >= done_before  # every killed-run cell served warm
        counts = resumed.manifest.counts([c.digest for c in resumed.expansion.cells])
        assert counts["done"] == N_CELLS
