"""``run`` is a one-runner drain with one batch.

Both verbs execute through one claim -> ``run_many`` -> flush -> release
loop, so a ``run`` takes leases like any drain runner: a ``run`` and a
``drain`` started together on one cache root compute every cell exactly
once between them.  A warm ``run`` serves recorded cells through the
cache lookup alone, without touching the lease directory.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    DEFAULT_LEASE_TTL,
    CampaignManifest,
    LeaseDir,
    expand,
    lease_dir_path,
    loads_campaign,
    manifest_path,
    run_campaign,
)
from repro.campaign import runner as campaign_runner
from repro.runner import ResultCache

CAMPAIGN = """
[campaign]
name = "race"

[defaults]
seed = 11
n_jobs = 40
runtime_scale = 0.01

[axes]
mesh = ["16x16"]
pattern = ["all-to-all"]
load = [1.0, 0.7, 0.4]
allocator = ["hilbert+bf", "s-curve", "mc1x1", "random"]
"""

N_CELLS = 12

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: One campaign invocation that starts only once the test touches the
#: ``go`` file, so both processes begin with every import already paid.
RACER = """
import sys, time
from pathlib import Path
from repro.campaign import drain_campaign, loads_campaign, run_campaign
from repro.runner import ResultCache

verb, campaign_file, cache_dir, ready, go = sys.argv[1:]
campaign = loads_campaign(Path(campaign_file).read_text())
cache = ResultCache(cache_dir)
Path(ready).touch()
while not Path(go).exists():
    time.sleep(0.002)
if verb == "run":
    out = run_campaign(campaign, cache=cache, jobs=1, tier="inline")
else:
    out = drain_campaign(campaign, cache=cache, runner="drainer", batch=4,
                         tier="inline", poll_s=0.05)
print("RESULTS", len(out.results), "BATCHES", out.batches, flush=True)
"""


def _manifest(cache: ResultCache):
    campaign = loads_campaign(CAMPAIGN)
    expansion = expand(campaign, store=cache.traces)
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    return expansion, CampaignManifest.open(path, campaign.name, expansion.digest)


class TestRunAndDrainTogether:
    def test_concurrent_run_and_drain_compute_each_cell_once(self, tmp_path):
        campaign_file = tmp_path / "race.toml"
        campaign_file.write_text(CAMPAIGN)
        cache_dir = tmp_path / "cache"
        go = tmp_path / "go"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        procs = {}
        for verb in ("run", "drain"):
            procs[verb] = subprocess.Popen(
                [
                    sys.executable, "-c", RACER, verb, str(campaign_file),
                    str(cache_dir), str(tmp_path / f"{verb}.ready"), str(go),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
        deadline = time.monotonic() + 120
        while not all((tmp_path / f"{v}.ready").exists() for v in procs):
            assert time.monotonic() < deadline, "racers never got ready"
            assert all(p.poll() is None for p in procs.values()), [
                p.communicate()[0] for p in procs.values()
            ]
            time.sleep(0.01)
        go.touch()
        outs = {v: p.communicate(timeout=120)[0] for v, p in procs.items()}
        assert all(p.returncode == 0 for p in procs.values()), outs
        # the run still answers for every cell of the campaign, taking a
        # new batch only for cells the drain recorded since its last one
        # (the drain flushes at most N_CELLS / 4 batches)
        assert f"RESULTS {N_CELLS} " in outs["run"], outs
        assert int(outs["run"].split("BATCHES")[1]) <= 1 + N_CELLS // 4, outs

        cache = ResultCache(cache_dir)
        expansion, manifest = _manifest(cache)
        counts = manifest.counts([c.digest for c in expansion.cells])
        assert counts["done"] == N_CELLS and counts["pending"] == 0
        assert counts["computed"] == N_CELLS
        # one run record per invocation, and their misses add up to
        # exactly one compute per cell
        assert len(manifest.runs) == 2
        assert sum(rec["misses"] for rec in manifest.runs) == N_CELLS
        lease_root = lease_dir_path(cache.root, "race", expansion.digest)
        assert not list(lease_root.glob("*.json"))


class TestRunLoop:
    def test_warm_run_takes_no_lease(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        cold = run_campaign(loads_campaign(CAMPAIGN), cache=cache, tier="inline")
        assert cold.misses == N_CELLS and cold.batches == 1
        assert cold.manifest.runs[-1]["mode"] == "run"
        claims = []
        monkeypatch.setattr(
            LeaseDir, "claim", lambda self, digest: claims.append(digest)
        )
        warm = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache.root), tier="inline"
        )
        assert warm.hits == N_CELLS and warm.misses == 0
        assert [c.digest for c in warm.selected] == [
            c.digest for c in warm.expansion.cells
        ]
        assert claims == []

    def test_parallel_run_makes_one_run_many_call(self, tmp_path, monkeypatch):
        calls = []
        run_many = campaign_runner.run_many

        def counted(specs, **kwargs):
            specs = list(specs)
            calls.append(len(specs))
            return run_many(specs, **kwargs)

        monkeypatch.setattr(campaign_runner, "run_many", counted)
        run = run_campaign(
            loads_campaign(CAMPAIGN),
            cache=ResultCache(tmp_path / "cache"),
            jobs=2,
            tier="process",
        )
        assert calls == [N_CELLS]
        assert run.tier_decision.tier == "process"
        assert len(run.results) == N_CELLS

    def test_run_without_cache_creates_no_lease_file(self, tmp_path, monkeypatch):
        """A cache-less run's root is private to it: no other runner could
        see a lease there, so it claims its cells without creating any."""
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        seen = []
        run_many = campaign_runner.run_many

        def looking(specs, **kwargs):
            seen.extend(tmp_path.rglob("*.leases"))
            return run_many(specs, **kwargs)

        monkeypatch.setattr(campaign_runner, "run_many", looking)
        monkeypatch.setattr(
            LeaseDir, "__init__", lambda *a, **k: pytest.fail("lease dir made")
        )
        run = run_campaign(loads_campaign(CAMPAIGN), tier="inline")
        assert run.misses == N_CELLS and len(run.results) == N_CELLS
        assert seen == []

    def test_run_without_cache_leaves_no_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        run = run_campaign(loads_campaign(CAMPAIGN), tier="inline")
        assert run.misses == N_CELLS and len(run.results) == N_CELLS
        assert list(tmp_path.iterdir()) == []

    def test_dead_local_runner_does_not_hold_up_a_run(self, tmp_path):
        """A killed run leaves its leases behind; on the same host the
        next run adopts them at once instead of waiting out their TTL."""
        gone = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        cache = ResultCache(tmp_path / "cache")
        expansion = expand(loads_campaign(CAMPAIGN), store=cache.traces)
        ghost = LeaseDir(
            lease_dir_path(cache.root, "race", expansion.digest), runner="ghost"
        )
        claimed, _ = ghost.claim_batch([c.digest for c in expansion.cells], 3)
        for digest in claimed:
            lease = json.loads(ghost.path_for(digest).read_text())
            lease["pid"] = int(gone.stdout)
            ghost.path_for(digest).write_text(json.dumps(lease))
        start = time.monotonic()
        run = run_campaign(
            loads_campaign(CAMPAIGN), cache=ResultCache(cache.root), tier="inline"
        )
        assert time.monotonic() - start < DEFAULT_LEASE_TTL / 4
        assert run.stolen == 3 and run.misses == N_CELLS
