"""Frozen per-event loop engine: the simulator's bit-exact test oracle.

This module preserves the simulator's original Python-loop implementation
-- a dict-keyed fluid network restacked at every ``rates()`` call, per-job
``advance`` / ``next_completion`` loops, per-start pattern-cycle routing and
a BFS component count -- so the vectorised engine in
:mod:`repro.sched.simulator` can be pinned *bit-identical* to it by the
equivalence suites, and so the cells/second micro-benchmark
(``benchmarks/test_sim_core_bench.py``) has an honest pre-refactor
baseline to beat.  It lives with the tests because nothing in the package
runs it.

The three semantic fixes that shipped with the vectorised core are mirrored
here (they are fixes to the model, not to the vectorisation):

* job results record the *held* processor count, so utilization sees
  page/submesh fragmentation;
* EASY's ``head_reservation`` refreshes rates before predicting
  completions, closing the infinite shadow window that let same-event
  starts (rate still 0.0) disable the backfill guard;
* arrival batching uses a relative time tolerance, so late arrivals in
  long traces are not glued to the wrong event by an absolute epsilon.

Its waterfill is the dense progressive filling of :mod:`oracles.maxmin`,
so the equivalence suites pin the simulator's sparse waterfill to a
solver that shares no code with it.  Its scheduling shares none either:
FCFS and EASY run inline on a private deque, and ``wfq``/``drr`` use the
frozen copies in :mod:`oracles.disciplines`, so the suites check all
four :mod:`repro.sched.registry` disciplines.  Do not "optimise" this
module -- its slowness is the point.  It imports nothing beyond numpy,
``repro`` and its sibling oracles so the benchmarks job can load it.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from oracles.disciplines import DISCIPLINES
from oracles.maxmin import dense_max_min_rates

from repro.core.base import Request
from repro.core.metrics import average_pairwise_hops, components
from repro.mesh.machine import Machine
from repro.network.links import link_space_for
from repro.network.traffic import build_load_vector, mean_message_hops
from repro.sched.job import Job, JobResult
from repro.sched.simulator import SimulationResult

__all__ = ["ENGINES", "run_engine", "run_loop"]

_EPS = 1e-9


def _arrival_tol(now: float) -> float:
    """Relative arrival-batching tolerance (absolute near t = 0)."""
    return _EPS * max(1.0, now)


class _LoopFluidNetwork:
    """The pre-refactor fluid network: flow dict, restacked per call."""

    def __init__(self, mesh, params):
        self.mesh = mesh
        self.params = params
        # Dispatched (not LinkSpace.for_mesh) so the reference engine sees
        # the same link space as the vectorised core on Clos topologies;
        # on meshes this is the identical cached object as before.
        self.space = link_space_for(mesh)
        cap = params.effective_link_capacity
        if not np.isfinite(cap):
            cap = 1e12
        self.capacities = np.full(self.space.n_links, cap, dtype=np.float64)
        self._flows: dict[int, np.ndarray] = {}
        self._hops: dict[int, float] = {}

    def issue_cap(self, mean_hops: float) -> float:
        p = self.params
        return 1.0 / (1.0 / p.issue_rate + p.hop_latency * max(mean_hops, 0.0))

    def add_flow(self, flow_id, load_vector, mean_hops):
        self._flows[flow_id] = np.asarray(load_vector, dtype=np.float64)
        self._hops[flow_id] = float(mean_hops)

    def remove_flow(self, flow_id):
        del self._flows[flow_id]
        del self._hops[flow_id]

    def rates(self) -> dict[int, float]:
        if not self._flows:
            return {}
        p = self.params
        ids = list(self._flows.keys())
        weights = np.stack([self._flows[i] for i in ids])
        mean_hops = np.array([self._hops[i] for i in ids])
        issue = 1.0 / p.issue_rate
        caps = np.full(len(ids), p.issue_rate)

        feasible = dense_max_min_rates(weights, self.capacities, caps)
        hop_shares = weights / p.message_flits
        idle_t = issue + p.hop_latency * hop_shares.sum(axis=1)
        r = np.minimum(feasible, 1.0 / idle_t)
        if p.contention_factor == 0 or p.hop_latency == 0:
            return dict(zip(ids, r.tolist()))
        hold = p.contention_factor * p.hop_latency * mean_hops
        for _ in range(p.fixed_point_iterations):
            rho = np.clip((r * hold) @ hop_shares, 0.0, p.max_utilisation)
            stretch = 1.0 / (1.0 - rho)
            t = issue + p.hop_latency * (hop_shares @ stretch)
            r = 0.5 * r + 0.5 * np.minimum(feasible, 1.0 / t)
        return dict(zip(ids, r.tolist()))


class _ActiveJob:
    __slots__ = (
        "job", "nodes", "held", "remaining", "rate", "start",
        "pairwise_hops", "message_hops", "n_components", "message_pairs",
    )

    def __init__(self, job, nodes, held, remaining, start, pairwise_hops,
                 message_hops, n_components, message_pairs):
        self.job = job
        self.nodes = nodes
        self.held = held
        self.remaining = remaining
        self.rate = 0.0
        self.start = start
        self.pairwise_hops = pairwise_hops
        self.message_hops = message_hops
        self.n_components = n_components
        self.message_pairs = message_pairs


def run_loop(sim) -> SimulationResult:
    """Execute ``sim``'s trace with the frozen per-event loop engine.

    ``sim`` is a :class:`repro.sched.simulator.Simulation`; the result is
    interchangeable with (and, by the equivalence suites, bit-identical to)
    ``sim.run()``'s.
    """
    machine = Machine(sim.mesh)
    network = _LoopFluidNetwork(sim.mesh, sim.params)
    # fcfs/easy wait in ``fifo``; wfq/drr in the oracle's own copy of
    # the discipline, called at the same event points as the simulator.
    discipline = DISCIPLINES.get(sim.scheduler)
    policy = None if discipline is None else discipline(sim.jobs)
    fifo: deque[Job] = deque()
    queue = fifo if policy is None else policy
    submit = fifo.append if policy is None else policy.submit
    active: dict[int, _ActiveJob] = {}
    results: list[JobResult] = []
    spawned = np.random.SeedSequence(sim.seed).spawn(len(sim.jobs))
    seeds = {job.job_id: s for job, s in zip(sim.jobs, spawned)}

    now = 0.0
    arr_idx = 0
    n_jobs = len(sim.jobs)

    def try_start(job: Job) -> bool:
        if job.size > machine.n_free:
            return False
        pattern = sim._pattern_of(job)
        allocation = sim.allocator.allocate(
            Request(size=job.size, job_id=job.job_id, pattern_hint=pattern.name),
            machine,
        )
        if allocation is None:
            return False
        machine.allocate(allocation.held, job_id=job.job_id)
        rng = np.random.default_rng(seeds[job.job_id])
        pairs = pattern.cycle(job.size, rng)
        load = build_load_vector(
            sim.mesh, allocation.nodes, pairs, sim.params.message_flits
        )
        hops = mean_message_hops(sim.mesh, allocation.nodes, pairs)
        ncomp = len(components(sim.mesh, allocation.nodes))
        record = _ActiveJob(
            job=job,
            nodes=allocation.nodes,
            held=allocation.held,
            remaining=float(job.quota),
            start=now,
            pairwise_hops=average_pairwise_hops(sim.mesh, allocation.nodes),
            message_hops=hops,
            n_components=ncomp,
            message_pairs=len(pairs),
        )
        active[job.job_id] = record
        network.add_flow(job.job_id, load, hops)
        return True

    def refresh_rates() -> None:
        for jid, rate in network.rates().items():
            active[jid].rate = rate

    def head_reservation(head: Job) -> tuple[float, int]:
        # Fix: jobs started earlier in this event still carry rate 0.0
        # until the end-of-event refresh; predict from fresh rates.
        refresh_rates()
        free = machine.n_free
        completions = sorted(
            (
                now + rec.remaining / rec.rate if rec.rate > 0 else float("inf"),
                len(rec.held),
            )
            for rec in active.values()
        )
        for t, released in completions:
            free += released
            if free >= head.size:
                return t, free - head.size
        return float("inf"), 0

    def backfill() -> bool:
        head = fifo[0]
        shadow, spare = head_reservation(head)
        started = False
        for job in list(fifo)[1:]:
            if job.size > machine.n_free:
                continue
            fits_window = now + job.quota <= shadow + _EPS
            fits_spare = job.size <= spare
            if (fits_window or fits_spare) and try_start(job):
                fifo.remove(job)
                started = True
                shadow, spare = head_reservation(head)
        return started

    def start_eligible() -> bool:
        if policy is not None:
            return policy.start_jobs(try_start)
        started = False
        while fifo and try_start(fifo[0]):
            fifo.popleft()
            started = True
        if fifo and sim.scheduler == "easy":
            started |= backfill()
        return started

    def advance(dt: float) -> None:
        if dt <= 0:
            return
        for rec in active.values():
            rec.remaining -= rec.rate * dt

    def next_completion() -> float:
        t = float("inf")
        for rec in active.values():
            if rec.rate > 0:
                t = min(t, now + max(rec.remaining, 0.0) / rec.rate)
        return t

    while arr_idx < n_jobs or queue or active:
        t_arrival = sim.jobs[arr_idx].arrival if arr_idx < n_jobs else float("inf")
        t_completion = next_completion()
        if t_arrival == float("inf") and t_completion == float("inf"):
            raise RuntimeError(
                f"simulation stalled: {len(queue)} queued jobs cannot start "
                f"({machine.n_free} free)"
            )
        t_next = min(t_arrival, t_completion)
        # Mirror of the vector engine's due set: jobs this completion
        # event was scheduled for finish even when the final advance's
        # float cancellation leaves their remaining above the epsilon
        # (which would otherwise re-select the same instant forever).
        due: set[int] = set()
        if t_completion == t_next:
            due = {
                jid
                for jid, rec in active.items()
                if rec.rate > 0
                and now + max(rec.remaining, 0.0) / rec.rate == t_completion
            }
        advance(t_next - now)
        now = t_next

        changed = False
        if t_arrival <= now + _arrival_tol(now):
            while (
                arr_idx < n_jobs
                and sim.jobs[arr_idx].arrival <= now + _arrival_tol(now)
            ):
                submit(sim.jobs[arr_idx])
                arr_idx += 1
            changed |= start_eligible()

        finished = [
            jid
            for jid, rec in active.items()
            if rec.remaining <= _EPS or jid in due
        ]
        for jid in finished:
            rec = active.pop(jid)
            network.remove_flow(jid)
            machine.release(rec.held)
            results.append(
                JobResult(
                    job_id=jid,
                    arrival=rec.job.arrival,
                    start=rec.start,
                    completion=now,
                    size=rec.job.size,
                    quota=rec.job.quota,
                    pairwise_hops=rec.pairwise_hops,
                    message_hops=rec.message_hops,
                    n_components=rec.n_components,
                    message_pairs=rec.message_pairs,
                    held=len(rec.held),
                    user_id=rec.job.user_id,
                    priority_class=rec.job.priority_class,
                )
            )
            changed = True
        if finished:
            changed |= start_eligible()
        if changed:
            refresh_rates()

    return SimulationResult(
        allocator=sim.allocator.name,
        pattern=sim.pattern_name,
        mesh_shape=sim.mesh.shape,
        load_factor=sim.load_factor,
        jobs=sorted(results, key=lambda r: r.job_id),
        makespan=now,
        scheduler=sim.scheduler,
    )


#: Engine labels the equivalence suites parametrise over.
ENGINES = ("vector", "loop")


def run_engine(sim, engine: str) -> SimulationResult:
    """Run ``sim`` with the package's engine (``"vector"``) or this oracle
    (``"loop"``)."""
    if engine == "vector":
        return sim.run()
    if engine == "loop":
        return run_loop(sim)
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
