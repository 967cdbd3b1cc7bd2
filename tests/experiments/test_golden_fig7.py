"""Golden-snapshot regression test for a small-scale Fig 7 panel.

Pins the per-cell mean response times of the all-to-all panel (16x22
mesh, ``small`` scale, seed 1) against a checked-in JSON snapshot so
future refactors cannot silently shift the paper's numbers.  The
simulation is deterministic, so the tolerance only absorbs
floating-point noise across numpy versions/platforms.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/experiments/test_golden_fig7.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import SMALL
from repro.experiments.sweep import PAPER_ALLOCATORS
from repro.runner import run_many, sweep_specs

GOLDEN_PATH = Path(__file__).parent / "data" / "fig7_small_golden.json"

#: Relative tolerance for float noise; the run itself is deterministic.
RTOL = 1e-6

#: Fig 7's machine, the SDSC Paragon partition.
MESH_SHAPE = (16, 22)


def compute_panel() -> dict[str, float]:
    """``"allocator@load" -> mean_response`` for the snapshot panel."""
    specs = sweep_specs(
        MESH_SHAPE,
        ("all-to-all",),
        SMALL.loads,
        PAPER_ALLOCATORS,
        seed=SMALL.seed,
        n_jobs=SMALL.n_jobs,
        runtime_scale=SMALL.runtime_scale,
    )
    return {
        f"{cell.summary.allocator}@{cell.summary.load_factor:g}": cell.summary.mean_response
        for cell in run_many(specs)
    }


def test_fig7_small_panel_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["mesh"] == list(MESH_SHAPE)
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
        "mean response times drifted from the golden Fig 7 panel "
        f"(intentional? regenerate with --regen): {drifted}"
    )


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "figure": "fig7",
        "panel": "all-to-all",
        "mesh": list(MESH_SHAPE),
        "scale": SMALL.name,
        "seed": SMALL.seed,
        "loads": list(SMALL.loads),
        "allocators": list(PAPER_ALLOCATORS),
        "mean_response": compute_panel(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['mean_response'])} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
