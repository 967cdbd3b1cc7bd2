"""Golden pin of every switched-fabric result row.

The bundled ``clos`` campaign (the 16x22 mesh next to ``fattree:k=8`` and
an oversubscribed ``leafspine:40x16``, 22 cells) and a small
``dragonfly:5x3x2`` grid (which ``clos.toml`` does not cover) run cold,
and each cell's full per-job :class:`~repro.sched.job.JobResult` rows
are hashed with SHA-256 and compared exactly against a checked-in
snapshot -- no tolerance.  The rows carry the start/completion times the
fluid network produces from the fabric's link loads and the hop and
component metrics of every allocation, so any change to a fabric's
routing, distances or hierarchy shows up here.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/campaign/test_golden_clos.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.campaign import bundled_campaign_path, load_campaign, run_campaign
from repro.runner import ExperimentSpec, run_many

GOLDEN_PATH = Path(__file__).parent / "data" / "clos_golden.json"

DRAGONFLY = "dragonfly:5x3x2"
DRAGONFLY_PATTERNS = ("all-to-all", "n-body", "random")
DRAGONFLY_ALLOCATORS = ("random", "rack-aware", "pod-local")


def _label(spec: ExperimentSpec) -> str:
    machine = spec.topology or "x".join(str(n) for n in spec.mesh_shape)
    return f"{machine}|{spec.pattern}|{spec.load:g}|{spec.allocator}"


def _rows_digest(jobs) -> str:
    """SHA-256 of a cell's job rows; floats serialise as exact reprs."""
    rows = [dataclasses.astuple(job) for job in jobs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _dragonfly_specs() -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            mesh_shape=(),
            topology=DRAGONFLY,
            pattern=pattern,
            allocator=allocator,
            load=1.0,
            seed=3,
            n_jobs=40,
            runtime_scale=0.01,
        )
        for pattern in DRAGONFLY_PATTERNS
        for allocator in DRAGONFLY_ALLOCATORS
    ]


def compute_digests() -> dict[str, str]:
    """``"machine|pattern|load|allocator" -> rows SHA-256`` for every cell."""
    run = run_campaign(
        load_campaign(bundled_campaign_path("clos")), cache=None, tier="inline"
    )
    cells = list(run.results) + run_many(_dragonfly_specs(), tier="inline")
    return {_label(cell.spec): _rows_digest(cell.jobs) for cell in cells}


def test_clos_cells_match_golden_rows():
    golden = json.loads(GOLDEN_PATH.read_text())["rows_sha256"]
    actual = compute_digests()
    assert set(actual) == set(golden), "cell grid changed shape"
    assert len(golden) == 22 + len(DRAGONFLY_PATTERNS) * len(DRAGONFLY_ALLOCATORS)
    drifted = sorted(key for key in golden if actual[key] != golden[key])
    assert not drifted, (
        "job rows drifted from the golden Clos snapshot "
        f"(intentional? regenerate with --regen): {drifted}"
    )


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "campaign": "clos",
        "extra_grid": {
            "topology": DRAGONFLY,
            "patterns": list(DRAGONFLY_PATTERNS),
            "allocators": list(DRAGONFLY_ALLOCATORS),
        },
        "rows_sha256": compute_digests(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['rows_sha256'])} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
