"""When the campaign manifest is written.

``run_campaign`` flushes at most once per ``FLUSH_INTERVAL_S`` while
cells complete and always once at the end; ``drain_campaign`` flushes
once per claim batch and releases a batch's leases only after the flush
that records its cells.  A flush lost to a crash is benign: the cell's
artifact is already in the content-addressed cache, so the next run
serves it as a hit.
"""

import pytest

from repro.campaign import (
    CampaignManifest,
    LeaseDir,
    drain_campaign,
    loads_campaign,
    run_campaign,
)
from repro.runner import ResultCache

CAMPAIGN = """
[campaign]
name = "flushes"

[defaults]
seed = 2
n_jobs = 6
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.8, 0.6]
allocator = ["hilbert+bf", "s-curve"]
"""

N_CELLS = 6


@pytest.fixture
def events(monkeypatch):
    """Logs every manifest flush (with the cells it records) and every
    lease release, in call order."""
    log = []
    flush, release = CampaignManifest.flush, LeaseDir.release

    def logged_flush(self):
        log.append(("flush", self.done_digests()))
        return flush(self)

    def logged_release(self, digest):
        log.append(("release", digest))
        return release(self, digest)

    monkeypatch.setattr(CampaignManifest, "flush", logged_flush)
    monkeypatch.setattr(LeaseDir, "release", logged_release)
    return log


def _flushes(log):
    return [entry for entry in log if entry[0] == "flush"]


class TestRunFlushes:
    def test_warm_all_hit_run_flushes_at_most_twice(self, tmp_path, events):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(loads_campaign(CAMPAIGN), cache=cache)
        events.clear()
        warm = run_campaign(loads_campaign(CAMPAIGN), cache=ResultCache(cache.root))
        assert warm.hits == N_CELLS and warm.misses == 0
        assert 1 <= len(_flushes(events)) <= 2
        # the last flush records every cell and the run
        assert len(events[-1][1]) == N_CELLS
        assert warm.manifest.runs[-1]["hits"] == N_CELLS


class TestDrainFlushes:
    def test_one_flush_per_batch_and_release_after_it(self, tmp_path, events):
        drain = drain_campaign(
            loads_campaign(CAMPAIGN),
            cache=ResultCache(tmp_path / "cache"),
            runner="solo",
            batch=2,
        )
        assert drain.batches == N_CELLS // 2
        assert drain.misses == N_CELLS
        # one flush per claim batch, plus the final run record
        assert len(_flushes(events)) == drain.batches + 1
        released = [digest for kind, digest in events if kind == "release"]
        assert sorted(released) == sorted(c.digest for c in drain.expansion.cells)
        recorded: set = set()
        for kind, payload in events:
            if kind == "flush":
                recorded |= payload
            else:
                assert payload in recorded, "lease released before its flush"
