"""Trace-driven FCFS simulator over the fluid network engine.

This is the reproduction's counterpart of the paper's ProcSimity runs
(Section 3): jobs arrive per the trace, wait in a queue (strict FCFS in
the paper; any discipline of :mod:`repro.sched.registry`), are placed by
the allocator under test, and then drain their message quota at the
max-min fair rate the contended network gives them.  A job's completion
releases its processors, which may unblock the queue head.

Event structure: the only times rates change are job starts and job
completions, so the simulator advances directly between those instants.
Between events every active job's remaining quota drains linearly at its
current rate.

The active jobs' remaining quotas, rates and held-processor counts live in
parallel NumPy arrays whose rows follow the fluid network's flow rows, so
advancing time, finding the next completion and detecting finished jobs
are single array ops; job starts route traffic through the closed forms of
:func:`repro.network.traffic.pattern_flow_profile` instead of
materialising a pattern cycle per start.  The test suite keeps the frozen
pre-vectorisation per-event loop as an oracle and pins this engine's
results to it, byte for byte, across mesh/pattern/scheduler combinations.

With ``A`` concurrently active jobs and ``N`` trace jobs the run costs
``O(N * (A * links))`` NumPy work -- minutes for the full 6087-job trace
across a parameter sweep, versus ~10^8 flit events for the microsimulator
(see docs/substitutions.md, substitution #2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import Allocator, Request
from repro.core.metrics import average_pairwise_hops, n_components
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.network.fluid import FluidNetwork, NetworkParams
from repro.network.traffic import pattern_flow_profile
from repro.patterns.base import Pattern
from repro.sched.job import Job, JobResult
from repro.sched.registry import make_discipline, validate_scheduler

__all__ = ["Simulation", "SimulationResult"]

_EPS = 1e-9


def _arrival_tol(now: float) -> float:
    """Arrival-batching tolerance: relative to the clock, absolute near 0.

    A fixed absolute epsilon mis-batches arrivals late in long traces,
    where consecutive event times differ by many ulps more than 1e-9;
    scaling by ``max(1.0, now)`` keeps the comparison meaningful at any
    point of the simulated timeline.
    """
    return _EPS * max(1.0, now)


@dataclass
class _ActiveJob:
    """Cold per-job metadata while running (hot state lives in arrays)."""

    job: Job
    nodes: np.ndarray
    held: np.ndarray
    start: float = 0.0
    pairwise_hops: float = 0.0
    message_hops: float = 0.0
    n_components: int = 1
    message_pairs: int = 0


class _ActiveTable:
    """Row-parallel hot state of active jobs (remaining, rate, held count).

    :class:`repro.network.fluid.FluidNetwork` owns the flow ids and their
    rows.  A job's row is appended here when its flow is added there, and
    removed with the row ``FluidNetwork.remove_flow`` reports, so
    ``rate[:n] = network.rates_vector()`` is aligned by construction.
    """

    def __init__(self) -> None:
        cap = 16
        self.n = 0
        self.remaining = np.zeros(cap, dtype=np.float64)
        self.rate = np.zeros(cap, dtype=np.float64)
        self.held = np.zeros(cap, dtype=np.int64)

    def add(self, remaining: float, held_count: int) -> None:
        row = self.n
        if row == len(self.remaining):
            for name in ("remaining", "rate", "held"):
                arr = getattr(self, name)
                new = np.zeros(2 * len(arr), dtype=arr.dtype)
                new[:row] = arr[:row]
                setattr(self, name, new)
        self.remaining[row] = remaining
        self.rate[row] = 0.0
        self.held[row] = held_count
        self.n = row + 1

    def remove(self, row: int) -> None:
        """Drop ``row``, shifting the rows above it down one slot."""
        n = self.n
        if row != n - 1:
            self.remaining[row : n - 1] = self.remaining[row + 1 : n]
            self.rate[row : n - 1] = self.rate[row + 1 : n]
            self.held[row : n - 1] = self.held[row + 1 : n]
        self.n = n - 1


@dataclass
class SimulationResult:
    """Outcome of one trace run: per-job results plus run metadata."""

    allocator: str
    pattern: str
    mesh_shape: tuple[int, ...]
    load_factor: float
    jobs: list[JobResult] = field(default_factory=list)
    makespan: float = 0.0
    scheduler: str = "fcfs"

    # -- aggregate metrics (the quantities the paper plots) -------------
    def mean_response(self) -> float:
        """Average response time over all jobs (y-axis of Figs 7/8)."""
        return float(np.mean([j.response for j in self.jobs])) if self.jobs else 0.0

    def mean_duration(self) -> float:
        """Average service time over all jobs."""
        return float(np.mean([j.duration for j in self.jobs])) if self.jobs else 0.0

    def mean_stretch(self) -> float:
        """Average duration / quota -- slowdown against the issue-rate floor.

        The baseline (stretch 1.0) is ``quota`` messages at the nominal
        issue rate -- quota seconds at the default one message/second.  It
        deliberately excludes per-hop latency, so even a contention-free
        job on a dispersed allocation has stretch slightly above 1; the
        excess over the idle-network stretch is what contention adds.
        """
        if not self.jobs:
            return 0.0
        return float(np.mean([j.duration / j.quota for j in self.jobs]))

    def fraction_contiguous(self) -> float:
        """Share of jobs allocated as a single component (Fig 11)."""
        if not self.jobs:
            return 0.0
        return float(np.mean([j.contiguous for j in self.jobs]))

    def mean_components(self) -> float:
        """Average number of components per job (Fig 11)."""
        if not self.jobs:
            return 0.0
        return float(np.mean([j.n_components for j in self.jobs]))

    def mean_utilization(self) -> float:
        """Time-averaged fraction of busy processors over the makespan.

        The quantity behind the paper's utilization argument against
        contiguous allocation (Section 2).  Computed exactly from the job
        intervals via a sweep over start/completion events; processors held
        but unused (page/submesh fragmentation) count as busy, so each
        job occupies its recorded ``held`` count (falling back to ``size``
        for legacy records without one).
        """
        if not self.jobs or self.makespan <= 0:
            return 0.0
        n_nodes = math.prod(self.mesh_shape)
        events: list[tuple[float, int]] = []
        for j in self.jobs:
            held = j.held if j.held else j.size
            events.append((j.start, held))
            events.append((j.completion, -held))
        events.sort()
        busy_area = 0.0
        busy = 0
        prev = 0.0
        for t, delta in events:
            busy_area += busy * (t - prev)
            busy += delta
            prev = t
        return busy_area / (self.makespan * n_nodes)


class Simulation:
    """One trace-driven run of (mesh, allocator, pattern, load).

    Parameters
    ----------
    mesh:
        Machine topology.
    allocator:
        The strategy under test (never mutated).
    pattern:
        Communication pattern instance shared by all jobs ("we assume that
        all jobs use the same communication pattern", Section 3.2) -- or a
        callable ``job -> Pattern`` for mixed workloads (the hybrid
        experiment of Section 5's discussion).
    jobs:
        Trace records sorted by arrival (arrival times already contracted
        by the load factor).
    params:
        Fluid-network parameters.
    seed:
        Seeds the per-job pattern randomness (random pattern only).
    load_factor:
        Recorded in the result for reporting; arrival times must already
        reflect it.
    """

    def __init__(
        self,
        mesh: Mesh,
        allocator: Allocator,
        pattern,
        jobs: list[Job],
        params: NetworkParams | None = None,
        seed: int = 0,
        load_factor: float = 1.0,
        pattern_label: str | None = None,
        scheduler: str = "fcfs",
    ):
        self.mesh = mesh
        self.allocator = allocator
        if callable(pattern) and not isinstance(pattern, Pattern):
            self._pattern_of = pattern
            self.pattern_name = pattern_label or "mixed"
        else:
            self._pattern_of = lambda job: pattern
            self.pattern_name = pattern_label or pattern.name
        self.params = params or NetworkParams()
        self.seed = seed
        self.load_factor = load_factor
        # The queueing discipline (repro.sched.registry); the paper's is
        # "fcfs", the others are extensions.
        self.scheduler = validate_scheduler(scheduler)
        self.jobs = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        seen: set[int] = set()
        for job in self.jobs:
            if job.size > mesh.n_nodes:
                raise ValueError(
                    f"job {job.job_id} needs {job.size} > {mesh.n_nodes} nodes"
                )
            if job.job_id in seen:  # ids key pattern seeds and flows
                raise ValueError(f"job id {job.job_id} appears more than once")
            seen.add(job.job_id)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the trace to completion and return per-job results."""
        machine = Machine(self.mesh)
        network = FluidNetwork(self.mesh, self.params)
        queue = make_discipline(self.scheduler, self.jobs)
        table = _ActiveTable()
        records: dict[int, _ActiveJob] = {}
        results: list[JobResult] = []
        # Per-job pattern seeds keyed by job id (ids need not be dense:
        # oversized jobs may have been dropped from the trace).
        spawned = np.random.SeedSequence(self.seed).spawn(len(self.jobs))
        seeds = {job.job_id: s for job, s in zip(self.jobs, spawned)}
        arrivals = np.array([j.arrival for j in self.jobs], dtype=np.float64)

        now = 0.0
        arr_idx = 0
        n_jobs = len(self.jobs)

        def try_start(job: Job) -> bool:
            """Attempt to allocate and start ``job`` right now."""
            if job.size > machine.n_free:
                return False
            pattern = self._pattern_of(job)
            allocation = self.allocator.allocate(
                Request(
                    size=job.size,
                    job_id=job.job_id,
                    pattern_hint=pattern.name,
                ),
                machine,
            )
            if allocation is None:  # page/submesh fragmentation etc.
                return False
            machine.allocate(allocation.held, job_id=job.job_id)
            if getattr(pattern, "deterministic_cycle", False):
                rng = None  # cycle ignores it; skip generator construction
            else:
                rng = np.random.default_rng(seeds[job.job_id])
            load, hops, cycle_len = pattern_flow_profile(
                self.mesh,
                pattern,
                allocation.nodes,
                self.params.message_flits,
                rng,
            )
            if getattr(pattern, "uniform_all_pairs", False):
                pairwise_hops = hops  # the same quotient of the same pair sum
            else:
                pairwise_hops = average_pairwise_hops(self.mesh, allocation.nodes)
            records[job.job_id] = _ActiveJob(
                job=job,
                nodes=allocation.nodes,
                held=allocation.held,
                start=now,
                pairwise_hops=pairwise_hops,
                message_hops=hops,
                n_components=n_components(self.mesh, allocation.nodes),
                message_pairs=cycle_len,
            )
            network.add_flow(job.job_id, load, hops)
            table.add(float(job.quota), len(allocation.held))
            return True

        def head_reservation(head: Job) -> tuple[float, int]:
            """(shadow time, spare processors) of the blocked queue head.

            Walks predicted completions (remaining quota at current rates)
            until enough held processors have been released for the head;
            capacity-based reservation is exact for the paper's
            noncontiguous allocators, which start whenever enough
            processors are free.  Rates are refreshed first: jobs started
            earlier in this same event still carry rate 0.0 until the
            end-of-event refresh, and predicting from those stale zeros
            would push the shadow time to infinity -- disabling the window
            guard exactly when the head needs it.
            """
            refresh_rates()
            free = machine.n_free
            n = table.n
            rate = table.rate[:n]
            t_pred = np.full(n, np.inf)
            running = rate > 0
            t_pred[running] = now + table.remaining[:n][running] / rate[running]
            completions = sorted(
                zip(t_pred.tolist(), table.held[:n].tolist())
            )
            for t, released in completions:
                free += released
                if free >= head.size:
                    return t, free - head.size
            return float("inf"), 0

        def refresh_rates() -> None:
            n = table.n
            if n:
                table.rate[:n] = network.rates_vector()

        def advance(dt: float) -> None:
            if dt <= 0:
                return
            n = table.n
            table.remaining[:n] -= table.rate[:n] * dt

        while arr_idx < n_jobs or queue or table.n:
            t_arrival = float(arrivals[arr_idx]) if arr_idx < n_jobs else float("inf")
            # Each running job's predicted completion at current rates.
            n = table.n
            rate = table.rate[:n]
            running = rate > 0
            pred = np.full(n, np.inf)
            pred[running] = (
                now + np.maximum(table.remaining[:n][running], 0.0) / rate[running]
            )
            t_completion = float(pred.min(initial=np.inf))
            if t_arrival == float("inf") and t_completion == float("inf"):
                raise RuntimeError(
                    "simulation stalled: queued jobs cannot start "
                    f"(queue head size {queue.head().size if queue else '?'}, "
                    f"{machine.n_free} free)"
                )
            t_next = min(t_arrival, t_completion)
            # Jobs whose predicted completion IS this event.  Late in a
            # trace the final ``remaining -= rate * dt`` cancellation can
            # leave the completing job a few ulps above the absolute
            # epsilon below, which would re-select the same event time
            # forever (dt = 0); the due set forces every job this event
            # was scheduled for.  (Empty when an arrival comes first.)
            due_rows = np.flatnonzero(pred == t_next)
            advance(t_next - now)
            now = t_next

            changed = False
            if t_arrival <= now + _arrival_tol(now):
                # Arrivals are sorted, so the batch reaching this event is
                # one binary search instead of a per-job comparison loop.
                batch_end = int(
                    np.searchsorted(arrivals, now + _arrival_tol(now), side="right")
                )
                for idx in range(arr_idx, batch_end):
                    queue.submit(self.jobs[idx])
                arr_idx = batch_end
                changed |= queue.start_jobs(try_start, now, head_reservation)

            done = table.remaining[: table.n] <= _EPS
            # Rows are append-only between the due snapshot and here
            # (starts happen above, removals only below), so the
            # snapshot's row indices are still valid.
            done[due_rows] = True
            ids = network.flow_ids()
            finished = [ids[r] for r in np.nonzero(done)[0]]
            for jid in finished:
                rec = records.pop(jid)
                table.remove(network.remove_flow(jid))
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
                changed |= queue.start_jobs(try_start, now, head_reservation)
            if changed:
                refresh_rates()

        result = SimulationResult(
            allocator=self.allocator.name,
            pattern=self.pattern_name,
            mesh_shape=self.mesh.shape,
            load_factor=self.load_factor,
            jobs=sorted(results, key=lambda r: r.job_id),
            makespan=now,
            scheduler=self.scheduler,
        )
        return result
