"""Regenerate pins.json: artifact and report digests at the default seed.

Run from the repository root after a change that is meant to alter
results (and say why in its description)::

    python3 perfbench/pin.py

Cold workloads pin the SHA-256 of every cell's artifact bytes over one
full pass of their campaign, keyed by cell digest; ``fairness-warm``
pins the digest of its fairness report text plus JSON export.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import PINS, WORK, import_program


def main() -> int:
    wl = import_program()
    WORK.mkdir(exist_ok=True)
    pins = {}
    for name, mode in wl.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=WORK))
        try:
            state = wl.setup(name, wl.DEFAULT_SEED, workdir)
            if mode == "warm":
                wl.populate(state, workdir)
                (op,) = wl.warm_ops(state, 1)
                if op.errors:
                    raise RuntimeError(f"{name}: {op.errors}")
                pins[name] = op.report_sha
            else:
                ops, raised = wl.cold_ops(state, workdir, state.n_cells)
                shas, errors = wl.check_cells(ops)
                if raised or any(errors):
                    raise RuntimeError(f"{name}: {raised or errors}")
                pins[name] = {wl.cell_key(op): sha for op, sha in zip(ops, shas)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: pinned {len(pins[name]) if isinstance(pins[name], dict) else 1}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
