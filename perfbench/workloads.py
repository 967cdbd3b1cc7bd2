"""The four benchmark workloads: campaign definitions, set-up and op loops.

Every workload runs in the calling process with ``jobs=1, tier="inline"``:
no worker pool and no second runner ever shares a timed window.  An *op*
is one computed cell (``run_cell`` plus ``put`` plus the manifest flush
that follows it) on the cold workloads and one report pass on
``fairness-warm``.  Op loops run whole passes until they have a given
number of ops, so the timed window and its traced replay run the same
ops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import (
    bundled_campaign_path,
    cell_digest,
    drain_campaign,
    expand,
    load_campaign,
    loads_campaign,
    run_campaign,
)
from repro.campaign import report
from repro.campaign.manifest import MANIFEST_DIRNAME
from repro.runner import ResultCache, run_cell

#: fig07's 16x22 mesh, patterns and trace length with links of 2 flits/s
#: (the default derives about 213 from message size and hop latency), so
#: the max-min waterfill runs on almost every rate refresh.
CONGESTED_TOML = """
[campaign]
name = "congested"
description = "fig07 mesh and patterns on congested links"

[defaults]
n_jobs = 150
runtime_scale = 0.01
network = { link_capacity = 2.0 }

[axes]
mesh = ["16x22"]
pattern = ["all-to-all", "n-body", "random"]
load = [1.0, 0.2]
allocator = ["mc", "hilbert+bf", "random"]
"""

#: Seed whose artifact and report digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: How each workload runs its passes: ``run`` (cold ``run_campaign``),
#: ``drain`` (cold one-runner ``drain_campaign``) or ``warm`` (report
#: passes over a warm cache).  README.md says why each was chosen.
WORKLOADS = {
    "fig07-cold": "run",
    "congested-cold": "run",
    "fairness-drain": "drain",
    "fairness-warm": "warm",
}

#: Workloads whose campaign gets a seed axis of this many values.  More
#: replicas average a run over more traces, so one seed's costlier cells
#: move the window's median and tail less; a pass of either is then about
#: one window long.
REPLICAS = {"congested-cold": 3, "fairness-drain": 4}
#: Distance between the seeds of one replicated run.  ``--seed`` values
#: below it get disjoint seed sets, so runs at consecutive ``--seed``
#: values share no trace and one costly trace moves one run, not several.
SEED_STRIDE = 1000

#: Seconds one pass took when the benchmark was defined (2-CPU VM, this
#: repository's first benchmark commit).  A window of ``--seconds`` is the
#: whole number of passes closest to it at these speeds, so every run of
#: a comparison, on either commit, times the same ops.
NOMINAL_PASS_S = {
    "fig07-cold": 14.0,
    "congested-cold": 15.0,
    "fairness-drain": 10.0,
    "fairness-warm": 0.3,
}


def window_ops(name: str, n_cells: int, seconds: float) -> int:
    """Ops in a window of about ``seconds``: whole passes, at least one."""
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    return passes if WORKLOADS[name] == "warm" else passes * n_cells


def make_campaign(name: str, seed: int):
    """The workload's campaign.  ``seed`` replaces the campaign's seed
    default, or starts the seed axis of the replicated workloads."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    if name == "congested-cold":
        base = loads_campaign(CONGESTED_TOML)
    else:
        base = load_campaign(bundled_campaign_path("fig07" if name == "fig07-cold" else "fairness"))
    if name in REPLICAS:
        seeds = [seed + SEED_STRIDE * i for i in range(REPLICAS[name])]
        campaign = dataclasses.replace(base, axes={"seed": seeds, **base.axes})
    else:
        campaign = dataclasses.replace(base, defaults={**base.defaults, "seed": seed})
    campaign.validate()
    return campaign


@dataclass
class Setup:
    """What set-up leaves behind for the timed window."""

    name: str
    mode: str
    campaign: object
    n_cells: int
    #: fairness-warm only (see :func:`populate`): the warm cache root, a
    #: copy of its campaign manifests as the cold populate left them, and
    #: the cold-computed results every warm pass must decode back to.
    serve_root: Path | None = None
    manifest_copy: Path | None = None
    reference: list = field(default_factory=list)


def setup(name: str, seed: int, workdir: Path) -> Setup:
    """Campaign load and expand plus one warm-up cell in a throwaway
    cache root -- what every CLI run of the campaign pays."""
    campaign = make_campaign(name, seed)
    scratch = ResultCache(tempfile.mkdtemp(prefix="warmup-", dir=workdir))
    expansion = expand(campaign, store=scratch.traces)
    scratch.put(run_cell(expansion.cells[0].spec, store=scratch.traces))
    return Setup(name, WORKLOADS[name], campaign, len(expansion.cells))


def populate(state: Setup, workdir: Path) -> None:
    """Compute the warm workload's serving cache cold, once, untimed.

    The cold populate is the work ``fairness-drain`` times; a warm CLI run
    does not pay it, so it is neither in ``setup_s`` nor in the window.
    """
    state.serve_root = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
    cold = run_campaign(state.campaign, ResultCache(state.serve_root), jobs=1, tier="inline")
    state.reference = cold.results
    state.manifest_copy = workdir / "serve-manifests"
    shutil.copytree(state.serve_root / MANIFEST_DIRNAME, state.manifest_copy)


def _restore_manifests(state: Setup) -> None:
    """Put back the manifests the cold populate left.  Every run appends a
    run record that each later flush rewrites, so without this each warm
    pass would flush a longer manifest than the one before it."""
    live = state.serve_root / MANIFEST_DIRNAME
    shutil.rmtree(live)
    shutil.copytree(state.manifest_copy, live)


@dataclass
class CellOp:
    seconds: float
    result: object
    root: Path


@dataclass
class PassOp:
    seconds: float
    cells: int
    #: Problems the pass showed (a miss, a decode mismatch); empty if none.
    errors: list
    report_sha: str


def cold_ops(state: Setup, workdir: Path, n_ops: int, on_op=None) -> tuple[list[CellOp], list[str]]:
    """Run whole cold passes, each into a fresh empty cache root, until
    there are at least ``n_ops`` ops.

    Whole passes keep the op mix of every window the same full grid.  Op
    durations are the intervals between cell completions, so the first
    op of a pass also carries the pass's expand and manifest open.
    ``on_op(n_ops)`` runs after each op, outside the op durations.
    Returns the ops and the errors
    raised by cells (each a failed op that ends the window).
    """
    ops: list[CellOp] = []
    while True:
        root = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
        cache = ResultCache(root)
        last = time.perf_counter()

        def progress(done, total, result, root=root):
            nonlocal last
            now = time.perf_counter()
            ops.append(CellOp(now - last, result, root))
            if on_op is not None:
                on_op(len(ops))
            last = time.perf_counter()

        try:
            if state.mode == "drain":
                drain_campaign(
                    state.campaign, cache, runner="perfbench", jobs=1,
                    tier="inline", progress=progress,
                )
            else:
                run_campaign(
                    state.campaign, cache, jobs=1, tier="inline", progress=progress
                )
        except Exception as exc:  # a failing cell ends the window as a failed op
            return ops, [f"{type(exc).__name__}: {exc}"]
        if len(ops) >= n_ops:
            return ops, []


def _same_result(a, b) -> bool:
    return a.summary == b.summary and a.jobs == b.jobs


def warm_ops(state: Setup, n_ops: int, on_op=None) -> list[PassOp]:
    """``n_ops`` warm passes -- ``run_campaign`` (all hits), the fairness
    text report and its JSON export.  Each pass is checked against
    the cold-computed reference outside its timed span."""
    ops: list[PassOp] = []
    while True:
        _restore_manifests(state)
        start = time.perf_counter()
        cache = ResultCache(state.serve_root)
        run = run_campaign(state.campaign, cache, jobs=1, tier="inline")
        text = report.format_fairness_report(run.expansion, cache)
        data = report.export_fairness_report(run.expansion, cache, fmt="json")
        now = time.perf_counter()
        errors = []
        if run.misses or run.hits != state.n_cells:
            errors.append(f"warm pass hits={run.hits} misses={run.misses}")
        bad = sum(
            not _same_result(got, want)
            for got, want in zip(run.results, state.reference)
        )
        if bad or len(run.results) != len(state.reference):
            errors.append(f"{bad} cells decode to other results than computed")
        sha = hashlib.sha256((text + "\n" + data).encode()).hexdigest()
        ops.append(PassOp(now - start, len(run.results), errors, sha))
        if on_op is not None:
            on_op(len(ops))
        if len(ops) >= n_ops:
            return ops


def check_cells(ops: list[CellOp]) -> tuple[list[str], list[str]]:
    """Decode each op's artifact back and hash its bytes.

    Returns ``(artifact sha256 per op, error per op or "")``.
    """
    caches: dict[Path, ResultCache] = {}
    shas, errors = [], []
    for op in ops:
        cache = caches.setdefault(op.root, ResultCache(op.root))
        decoded = cache.get(op.result.spec)
        if decoded is None or not _same_result(decoded, op.result):
            shas.append("")
            errors.append("artifact does not decode to the computed result")
            continue
        shas.append(hashlib.sha256(cache.path_for(op.result.spec).read_bytes()).hexdigest())
        errors.append("")
    return shas, errors


def cell_key(op: CellOp) -> str:
    return cell_digest(op.result.spec)
