"""Golden-snapshot regression test for a small-scale Fig 12 torus panel.

Pins the per-cell mean response times of the all-to-all panel of the
8x8x8-torus sweep (``small`` scale, seed 1) against a checked-in JSON
snapshot, mirroring ``test_golden_fig7.py`` for the new mesh dimension:
future refactors of the N-D routing / link-load / allocation stack cannot
silently shift the 3-D numbers.  A second test re-runs a slice of the
panel under ``jobs=2`` and asserts cell-for-cell identity with the serial
run -- the engine's determinism guarantee extended to 3-D cells.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/experiments/test_golden_fig12.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import bundled_campaign_path, load_campaign
from repro.experiments.config import SMALL
from repro.runner import run_many, sweep_specs

GOLDEN_PATH = Path(__file__).parent / "data" / "fig12_small_golden.json"

#: Relative tolerance for float noise; the run itself is deterministic.
RTOL = 1e-6

#: The extension's Cplant-class machine: an 8x8x8 torus.
MESH_SHAPE = (8, 8, 8)

#: The strategies with a 3-D ordering, as the bundled fig12 campaign
#: declares them.
TORUS_ALLOCATORS = tuple(load_campaign(bundled_campaign_path("fig12")).axes["allocator"])


def _panel_specs(allocators):
    return sweep_specs(
        MESH_SHAPE,
        ("all-to-all",),
        SMALL.loads,
        allocators,
        seed=SMALL.seed,
        n_jobs=SMALL.n_jobs,
        runtime_scale=SMALL.runtime_scale,
        torus=True,
    )


def compute_panel() -> dict[str, float]:
    """``"allocator@load" -> mean_response`` for the snapshot panel."""
    return {
        f"{cell.summary.allocator}@{cell.summary.load_factor:g}": cell.summary.mean_response
        for cell in run_many(_panel_specs(TORUS_ALLOCATORS))
    }


def test_fig12_small_panel_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["mesh"] == list(MESH_SHAPE) and golden["torus"] is True
    assert golden["scale"] == SMALL.name and golden["seed"] == SMALL.seed

    actual = compute_panel()
    expected = golden["mean_response"]
    assert set(actual) == set(expected), "cell grid changed shape"
    drifted = {
        key: (actual[key], expected[key])
        for key in expected
        if actual[key] != pytest.approx(expected[key], rel=RTOL)
    }
    assert not drifted, (
        "mean response times drifted from the golden Fig 12 panel "
        f"(intentional? regenerate with --regen): {drifted}"
    )


def test_fig12_parallel_runs_match_serial_exactly():
    """3-D torus cells are bit-identical under worker fan-out."""
    specs = _panel_specs(("hilbert", "hilbert+bf"))
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2, tier="process")
    for a, b in zip(serial, parallel):
        assert a.spec == b.spec
        assert a.summary == b.summary
        assert a.jobs == b.jobs


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "figure": "fig12",
        "panel": "all-to-all",
        "mesh": list(MESH_SHAPE),
        "torus": True,
        "scale": SMALL.name,
        "seed": SMALL.seed,
        "loads": list(SMALL.loads),
        "allocators": list(TORUS_ALLOCATORS),
        "mean_response": compute_panel(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['mean_response'])} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
