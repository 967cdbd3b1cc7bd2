"""Golden-snapshot regression tests for the real-SWF figswf driver.

Pins the per-cell mean response times of both figswf panels (16x16 mesh
and 8x8x8 torus, bundled mini-SWF fixture) against a checked-in JSON
snapshot, at ``small`` scale for tier-1 and ``medium`` scale for the CI
ingestion smoke job (set ``REPRO_RUN_MEDIUM_GOLDEN=1`` to enable the
medium check locally).  The driver is deterministic -- including across
``--jobs`` values, which the parallel test pins explicitly (an acceptance
criterion of the trace-store refactor: worker hydration from the
content-addressed store must not perturb results).

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/experiments/test_golden_figswf.py --regen
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.experiments import config
from repro.experiments.figswf_realtrace import run
from repro.runner import ResultCache

GOLDEN_PATH = Path(__file__).parent / "data" / "figswf_golden.json"

#: Relative tolerance for float noise; the run itself is deterministic.
RTOL = 1e-6

GOLDEN_SCALES = ("small", "medium")


def compute_panels(scale_name: str, jobs: int = 1, cache_root=None) -> dict:
    """``machine -> {"allocator@load" -> mean_response}`` for one scale."""
    scale = config.get_scale(scale_name)
    cache = ResultCache(cache_root) if cache_root is not None else None
    result = run(scale, jobs=jobs, cache=cache)
    out = {}
    for machine in ("mesh2d", "torus"):
        panel = getattr(result, machine)[0]
        out[machine] = {
            f"{cell.allocator}@{cell.load_factor:g}": cell.mean_response
            for cell in panel.cells
        }
    return out


def _assert_matches_golden(scale_name: str, actual: dict) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden["scales"][scale_name]
    for machine in ("mesh2d", "torus"):
        assert set(actual[machine]) == set(expected[machine]), (
            f"{scale_name}/{machine}: cell grid changed shape"
        )
        drifted = {
            key: (actual[machine][key], expected[machine][key])
            for key in expected[machine]
            if actual[machine][key] != pytest.approx(expected[machine][key], rel=RTOL)
        }
        assert not drifted, (
            f"{scale_name}/{machine} drifted from the figswf golden "
            f"(intentional? regenerate with --regen): {drifted}"
        )


def test_figswf_small_matches_golden_and_is_jobs_invariant(tmp_path):
    """Small-scale golden, computed through a cache's workload store --
    serially and with 4 workers, which must agree bit-for-bit."""
    serial = compute_panels("small", jobs=1, cache_root=tmp_path / "serial")
    _assert_matches_golden("small", serial)
    parallel = compute_panels("small", jobs=4, cache_root=tmp_path / "parallel")
    assert parallel == serial


def test_figswf_cacheless_path_matches_golden():
    """No cache => the trace is interned into the run's throwaway store;
    the panels must equal the golden all the same."""
    cacheless = compute_panels("small", jobs=1, cache_root=None)
    _assert_matches_golden("small", cacheless)


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_MEDIUM_GOLDEN"),
    reason="medium golden runs in the CI ingestion smoke job "
    "(REPRO_RUN_MEDIUM_GOLDEN=1 to enable)",
)
def test_figswf_medium_matches_golden(tmp_path):
    actual = compute_panels("medium", jobs=2, cache_root=tmp_path / "medium")
    _assert_matches_golden("medium", actual)


def _regenerate() -> None:
    from repro.campaign import bundled_campaign_path, load_campaign

    axes = load_campaign(bundled_campaign_path("figswf")).axes
    payload = {
        "figure": "figswf",
        "fixture": "sdsc_mini.swf",
        "patterns": list(axes["pattern"]),
        "allocators": list(axes["allocator"]),
        "scales": {},
    }
    for scale_name in GOLDEN_SCALES:
        with tempfile.TemporaryDirectory() as tmp:
            payload["scales"][scale_name] = compute_panels(
                scale_name, jobs=4, cache_root=Path(tmp)
            )
        n = sum(len(v) for v in payload["scales"][scale_name].values())
        print(f"{scale_name}: {n} cells")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
