"""In-memory span tracing around the public functions of each layer.

:class:`Tracer` patches functions of the ``repro`` modules at run time
(``src/`` is never edited) and records one span per call -- name, start,
end, parent span and the op (cell or pass) it belongs to -- plus counts
taken at the same boundaries.  :func:`layer_metrics` derives the
per-layer busy and self times from the spans.

Names a module binds at import time (``from x import f``) must be patched
where they are *called*: ``repro.sched.simulator`` and
``repro.runner.engine`` hold their own references to
``pattern_flow_profile``, ``average_pairwise_hops``, ``n_components``,
``make_allocator`` and ``run_cell``, so patching the defining module
would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, class or None, attribute, span name)
_TARGETS = (
    ("repro.network.fluid", None, "max_min_rates", "network.waterfill"),
    ("repro.network.fluid", "FluidNetwork", "rates_vector", "network.rates"),
    ("repro.network.fluid", "FluidNetwork", "add_flow", "network.flow_update"),
    ("repro.network.fluid", "FluidNetwork", "remove_flow", "network.flow_update"),
    ("repro.sched.simulator", None, "pattern_flow_profile", "network.flow_profile"),
    ("repro.sched.simulator", None, "average_pairwise_hops", "core.metrics"),
    ("repro.sched.simulator", None, "n_components", "core.metrics"),
    ("repro.sched.simulator", "Simulation", "run", "sched.run"),
    ("repro.runner.spec", "ExperimentSpec", "build_machine_topology", "mesh.topology"),
    ("repro.runner.spec", "ExperimentSpec", "build_jobs", "trace.hydrate"),
    ("repro.trace.store", "TraceStore", "get", "trace.store.get"),
    ("repro.runner.engine", None, "run_cell", "runner.run_cell"),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache.put"),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache.get"),
    ("repro.campaign.runner", None, "expand", "campaign.expand"),
    ("repro.campaign.manifest", "CampaignManifest", "flush", "campaign.manifest.flush"),
    ("repro.campaign.lease", "LeaseDir", "claim_batch", "campaign.lease"),
    ("repro.campaign.lease", "LeaseDir", "release", "campaign.lease"),
    ("repro.campaign.lease", "LeaseDir", "release_all", "campaign.lease"),
    ("repro.campaign.lease", "LeaseDir", "heartbeat", "campaign.lease"),
    ("repro.campaign.report", None, "format_fairness_report", "campaign.report"),
    ("repro.campaign.report", None, "export_fairness_report", "campaign.report"),
    ("repro.analysis.fairness", None, "fairness_summary", "analysis.fairness"),
)

def _count_waterfill(counts, args, result):
    weights = args[0]
    counts["network.waterfill.flows"] += weights.shape[0]
    counts["network.waterfill.links"] += int(np.count_nonzero(weights.any(axis=0)))


def _count_put(counts, args, result):
    counts["runner.cache.put.bytes"] += result.stat().st_size


def _count_get(counts, args, result):
    counts["runner.cache.get.hits"] += result is not None


def _count_allocate(counts, args, result):
    counts["core.allocate.fails"] += result is None


_AFTER = {
    "network.waterfill": _count_waterfill,
    "runner.cache.put": _count_put,
    "runner.cache.get": _count_get,
}


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: Counter = Counter()
        self.current_op = -1
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        names, starts, ends = self.names, self.start, self.end
        parents, ops, counts = self.parent, self.op, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        for module_name, cls_name, attr, span in _TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            self._patch(owner, attr, self.wrap(span, getattr(owner, attr), _AFTER.get(span)))
        # Allocators are instances made per cell: wrap each one's bound
        # ``allocate`` as the engine creates it.
        engine = importlib.import_module("repro.runner.engine")
        make_allocator = engine.make_allocator

        def traced_make_allocator(*args, **kwargs):
            allocator = make_allocator(*args, **kwargs)
            allocator.allocate = self.wrap(
                "core.allocate", allocator.allocate, _count_allocate
            )
            return allocator

        self._patch(engine, "make_allocator", traced_make_allocator)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------
    def write(self, path: Path, extra: dict) -> None:
        """Write spans (columnar, names interned) and counts as JSON."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        payload = {
            **extra,
            "counts": dict(self.counts),
            "span_names": table,
            "spans": {
                "name": [index[n] for n in self.names],
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "op": self.op,
            },
        }
        path.write_text(json.dumps(payload))


def layer_times(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per span name: busy seconds, self seconds and call count.

    Busy time and calls count only the outermost span of a name (a span
    nested in one of the same name adds nothing).  Self time is a span's
    duration minus the part its direct children cover.
    """
    names, parent = tracer.names, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_time = [0.0] * len(names)
    busy: dict = defaultdict(float)
    selfs: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, name in enumerate(names):
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
        nested = False
        while p >= 0:
            if names[p] == name:
                nested = True
                break
            p = parent[p]
        if not nested:
            busy[name] += dur[i]
            calls[name] += 1
    for i, name in enumerate(names):
        selfs[name] += dur[i] - child_time[i]
    return busy, selfs, calls


def layer_metrics(times: tuple[dict, dict, dict], c: Counter, overhead_frac: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, with units, from
    :func:`layer_times` and the tracer's counts."""
    busy, selfs, calls = times

    def ratio(num, den):
        return num / den if den else 0.0

    wf_calls = calls["network.waterfill"]
    values = {
        "network.waterfill.s": (busy["network.waterfill"], "s"),
        "network.waterfill.calls": (wf_calls, "count"),
        "network.waterfill.flows_mean": (ratio(c["network.waterfill.flows"], wf_calls), "flows"),
        "network.waterfill.links_mean": (ratio(c["network.waterfill.links"], wf_calls), "links"),
        "network.rates.s": (busy["network.rates"], "s"),
        "network.rates.calls": (calls["network.rates"], "count"),
        "network.gate_skip_frac": (
            1.0 - ratio(wf_calls, calls["network.rates"]) if calls["network.rates"] else 0.0,
            "ratio",
        ),
        "network.flow_profile.s": (busy["network.flow_profile"], "s"),
        "network.flow_profile.calls": (calls["network.flow_profile"], "count"),
        "network.flow_update.s": (busy["network.flow_update"], "s"),
        "core.allocate.s": (busy["core.allocate"], "s"),
        "core.allocate.calls": (calls["core.allocate"], "count"),
        "core.allocate.fail_frac": (ratio(c["core.allocate.fails"], calls["core.allocate"]), "ratio"),
        "core.metrics.s": (busy["core.metrics"], "s"),
        "mesh.topology.s": (busy["mesh.topology"], "s"),
        "sched.run.s": (busy["sched.run"], "s"),
        "sched.self.s": (selfs["sched.run"], "s"),
        "trace.hydrate.s": (busy["trace.hydrate"], "s"),
        "trace.store.get.calls": (calls["trace.store.get"], "count"),
        "runner.run_cell.s": (busy["runner.run_cell"], "s"),
        "runner.run_cell.calls": (calls["runner.run_cell"], "count"),
        "runner.cache.put.s": (busy["runner.cache.put"], "s"),
        "runner.cache.put.bytes": (c["runner.cache.put.bytes"], "bytes"),
        "runner.cache.get.s": (busy["runner.cache.get"], "s"),
        "runner.cache.hit_frac": (ratio(c["runner.cache.get.hits"], calls["runner.cache.get"]), "ratio"),
        "campaign.expand.s": (busy["campaign.expand"], "s"),
        "campaign.manifest.flush.s": (busy["campaign.manifest.flush"], "s"),
        "campaign.manifest.flush.calls": (calls["campaign.manifest.flush"], "count"),
        "campaign.lease.s": (busy["campaign.lease"], "s"),
        "campaign.lease.calls": (calls["campaign.lease"], "count"),
        "campaign.report.s": (busy["campaign.report"], "s"),
        "analysis.fairness.s": (busy["analysis.fairness"], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def self_time_table(times: tuple[dict, dict, dict]) -> str:
    """Human-readable per-layer busy/self/calls table, busiest first."""
    busy, selfs, calls = times
    lines = [f"{'layer':<26}{'busy s':>10}{'self s':>10}{'calls':>10}"]
    for name in sorted(busy, key=busy.get, reverse=True):
        lines.append(f"{name:<26}{busy[name]:>10.3f}{selfs[name]:>10.3f}{calls[name]:>10d}")
    return "\n".join(lines)
