"""Golden pin of every bundled campaign's expansion.

Each campaign shipped under ``repro/campaign/data/`` is expanded against a
fresh workload store, and its cell count and expansion digest (the
SHA-256 over the ordered cell digests, so over every cell's spec) are
compared exactly against a checked-in snapshot.  Any change to which
cells a campaign file yields, their order, or the spec fields that reach
a cell digest shows up here.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/campaign/test_golden_expand.py --regen
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.campaign import bundled_campaign_path, expand, load_campaign
from repro.campaign.model import bundled_campaign_names
from repro.trace.store import TraceStore

GOLDEN_PATH = Path(__file__).parent / "data" / "expand_golden.json"


def compute_expansions(store_root: Path) -> dict[str, dict]:
    """``name -> {"cells": count, "digest": expansion digest}``."""
    store = TraceStore(store_root)
    out = {}
    for name in bundled_campaign_names():
        expansion = expand(load_campaign(bundled_campaign_path(name)), store=store)
        out[name] = {"cells": len(expansion.cells), "digest": expansion.digest}
    return out


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return compute_expansions(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["campaigns"]


def test_every_bundled_campaign_is_pinned(actual, golden):
    assert len(golden) == 12
    assert set(actual) == set(golden)


@pytest.mark.parametrize("name", bundled_campaign_names())
def test_expansion_matches_golden(actual, golden, name):
    assert actual[name] == golden[name], (
        f"campaign {name!r} expands differently from the golden snapshot "
        "(intentional? regenerate with --regen)"
    )


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        campaigns = compute_expansions(Path(tmp) / "traces")
    payload = {"campaigns": campaigns}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(campaigns)} campaigns)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
