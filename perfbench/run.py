"""Benchmark entry point: one workload, one timed window, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fig07-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats the window's ops with every layer wrapped in spans
and reports the per-layer metrics instead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for cache roots, results and span files (git-ignored).
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
#: Host-speed probes taken after each set-up sample.
SETUP_PROBES = 5
#: Samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10


def import_program():
    """Import the package under test from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    import workloads

    return workloads


@dataclass
class Window:
    """One run of a workload's op loop, with its correctness verdicts."""

    seconds: list = field(default_factory=list)  # per op
    cells: int = 0  # cells computed (cold) or served (warm)
    fingerprints: list = field(default_factory=list)  # per op
    errors: list = field(default_factory=list)  # per failed op
    raised: int = 0  # cells that raised instead of completing an op
    speed: hostspeed.Sampler = field(default_factory=hostspeed.Sampler)

    @property
    def scaled(self) -> list:
        """Op seconds at the reference host speed (see hostspeed.py)."""
        k = self.speed.scale()
        return [s * k for s in self.seconds]

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.raised


def run_window(wl, state, workdir: Path, seed: int, n_ops: int, pins: dict,
               on_op=None, after_ops=None) -> Window:
    """Run ``n_ops`` ops (whole passes), probing host speed between them,
    call ``after_ops``, then check every op."""
    win = Window()
    name = state.name

    def between_ops(k):
        if on_op is not None:
            on_op(k)
        win.speed.between_ops()

    if state.mode == "warm":
        ops = wl.warm_ops(state, n_ops, between_ops)
        if after_ops is not None:
            after_ops()
        for op in ops:
            win.seconds.append(op.seconds)
            win.cells += op.cells
            win.fingerprints.append(op.report_sha)
            if seed == wl.DEFAULT_SEED and op.report_sha != pins.get(name):
                op.errors.append("report digest differs from the pinned one")
            if op.errors:
                win.errors.append("; ".join(op.errors))
        return win
    ops, raised = wl.cold_ops(state, workdir, n_ops, between_ops)
    if after_ops is not None:
        after_ops()
    win.errors += raised
    win.raised = len(raised)
    shas, errors = wl.check_cells(ops)
    pinned = pins.get(name, {}) if seed == wl.DEFAULT_SEED else {}
    for op, sha, err in zip(ops, shas, errors):
        win.seconds.append(op.seconds)
        win.cells += 1
        win.fingerprints.append(sha)
        key = wl.cell_key(op)
        if err:
            win.errors.append(err)
        elif seed == wl.DEFAULT_SEED and pinned.get(key) != sha:
            win.errors.append(f"artifact of cell {key[:12]} differs from the pinned digest")
    return win


def tail(values: list) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_sample(args) -> tuple[float, float]:
    """Time set-up in a fresh process: imports, load, expand, warm-up.
    Returns ``(measured s, s at the reference host speed)``."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["setup_s"] * sample["scale"]


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository.
    Git is pointed at the checkout's own ``.git``, so it never searches
    the directories above it."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def host_facts(seed: int) -> dict:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "cache_root_fs": _filesystem(WORK),
    }


def end_to_end(args, win: Window) -> tuple[dict, list]:
    """The end-to-end metrics; timings at the reference host speed."""
    scaled = win.scaled
    busy = sum(scaled)
    tail_s, pct = tail(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    metrics = {
        "setup_s": {"value": statistics.median(s for _, s in samples), "unit": "s"},
        "cells_per_s": {"value": win.cells / busy, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    raw = win.seconds
    notes = [
        f"window: {len(raw)} ops, {win.cells} cells, {sum(raw):.3f} s busy as measured",
        f"host-speed scale {win.speed.scale():.4f} from {len(win.speed.samples)} probes",
        "as measured: cells_per_s {:.4f}, op_p50_ms {:.3f}, op_tail_ms {:.3f}".format(
            win.cells / sum(raw), 1e3 * statistics.median(raw), 1e3 * tail(raw)[0]
        ),
        "setup samples (s, measured/scaled): "
        + ", ".join(f"{m:.4f}/{s:.4f}" for m, s in samples),
        f"op_tail_ms is p{pct:.1f} of {len(raw)} ops ({TAIL_BEYOND} beyond it)",
    ]
    return metrics, notes


def traced(args, wl, state, workdir: Path, pins: dict, first: Window) -> tuple[dict, list, Window]:
    """Replay ``first``'s ops with every layer wrapped; per-layer metrics."""
    from spans import Tracer, layer_metrics, layer_times, self_time_table

    tracer = Tracer()

    def on_op(k):
        tracer.current_op = k

    tracer.current_op = 0
    tracer.install()
    try:
        win = run_window(
            wl, state, workdir, args.seed, len(first.seconds), pins,
            on_op=on_op, after_ops=tracer.uninstall,
        )
    finally:
        tracer.uninstall()
    if win.fingerprints != first.fingerprints:
        win.errors.append("traced ops produced other artifacts than untraced ones")
    overhead = sum(win.scaled) / sum(first.scaled) - 1.0
    times = layer_times(tracer)
    metrics = layer_metrics(times, tracer.counts, overhead)
    notes = [self_time_table(times)]
    notes += self_checks(state.name, metrics, win)
    busy, selfs, calls = times
    tracer.write(
        WORK / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "op_seconds": win.seconds,
         "layers": {k: {"busy_s": busy[k], "self_s": selfs[k], "calls": calls[k]} for k in busy}},
    )
    return metrics, notes, win


def self_checks(name: str, m: dict, win: Window) -> list:
    """Assert the property that makes each workload stress what it does."""
    v = {k: x["value"] for k, x in m.items()}
    checks = {
        "fig07-cold": ("network.waterfill.calls == 0", v["network.waterfill.calls"] == 0),
        "congested-cold": (
            "network.waterfill.s >= 0.30 * sched.run.s",
            v["network.waterfill.s"] >= 0.30 * v["sched.run.s"],
        ),
        "fairness-drain": ("campaign.lease.calls > 0", v["campaign.lease.calls"] > 0),
        "fairness-warm": (
            "runner.run_cell.calls == 0 and runner.cache.hit_frac == 1.0",
            v["runner.run_cell.calls"] == 0 and v["runner.cache.hit_frac"] == 1.0,
        ),
    }
    text, ok = checks[name]
    if not ok:
        win.errors.append(f"self-check failed: {text}")
    return [f"self-check {'ok' if ok else 'FAILED'}: {text}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        state = wl.setup(args.workload, args.seed, workdir)
        if args.setup_only:
            setup_s = time.perf_counter() - _T0
            scale = hostspeed.scale([hostspeed.probe() for _ in range(SETUP_PROBES)])
            print(json.dumps({"setup_s": setup_s, "scale": scale}))
            return 0
        if state.mode == "warm":
            wl.populate(state, workdir)
        pins = json.loads(PINS.read_text())
        n_ops = wl.window_ops(args.workload, state.n_cells, args.seconds)
        win = run_window(wl, state, workdir, args.seed, n_ops, pins)
        if args.trace:
            metrics, notes, replay = traced(args, wl, state, workdir, pins, win)
            attempted = win.attempted + replay.attempted
            errors = win.errors + replay.errors
        else:
            metrics, notes = end_to_end(args, win)
            attempted, errors = win.attempted, win.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = host_facts(args.seed)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "host": facts, "notes": notes,
                    "errors": errors, **result}, indent=2)
    )
    print(f"workload {args.workload} (trace {args.trace})")
    print("host " + json.dumps(facts))
    for line in notes:
        print(line)
    for err in errors[:20]:
        print(f"FAILED: {err}")
    for key, m in metrics.items():
        print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
