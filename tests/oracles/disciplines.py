"""Frozen copies of the fair-queueing disciplines, for the loop engine.

:func:`oracles.loop_engine.run_loop` schedules ``wfq`` and ``drr`` with
these classes instead of importing :mod:`repro.sched.registry`, so the
engine-equivalence suites check the package's discipline objects against
code they do not share.  They are copies of the registry's ``WFQQueue``
and ``DRRQueue``, kept with their original single-argument
``start_jobs``; do not edit them to track changes in ``src/``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.sched.job import Job

__all__ = ["DISCIPLINES", "DRRQueue", "WFQQueue", "class_weight"]


def class_weight(priority_class: int) -> float:
    """Service weight of a priority class (class 0 -> 1.0, linear).

    Higher classes finish their virtual service faster, so under ``wfq``
    a class-1 job of quota ``q`` is tagged as if it were a class-0 job
    of quota ``q / 2``.
    """
    return 1.0 + priority_class


class WFQQueue:
    """Self-clocked weighted fair queueing over priority classes."""

    name = "wfq"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        self._queues: dict[int, deque[tuple[float, Job]]] = {}
        self._last_finish: dict[int, float] = {}
        self._virtual = 0.0
        self._n = 0

    def submit(self, job: Job) -> None:
        """Stamp an arriving job with its virtual finish tag."""
        cls = job.priority_class
        queue = self._queues.get(cls)
        if queue is None:
            queue = self._queues[cls] = deque()
        start = max(self._virtual, self._last_finish.get(cls, 0.0))
        finish = start + job.quota / class_weight(cls)
        self._last_finish[cls] = finish
        queue.append((finish, job))
        self._n += 1

    def _select(self) -> tuple[int, deque[tuple[float, Job]]] | None:
        best_key = None
        best_queue = None
        for cls, queue in self._queues.items():
            if not queue:
                continue
            key = (queue[0][0], cls)
            if best_key is None or key < best_key:
                best_key, best_queue = key, queue
        return None if best_queue is None else (best_key[1], best_queue)

    def head(self) -> Job | None:
        """The pending job with the smallest (finish tag, class)."""
        selected = self._select()
        return None if selected is None else selected[1][0][1]

    def start_jobs(self, try_start) -> bool:
        """Start minimum-tag heads until one fails to place (strict)."""
        started = False
        while self._n:
            _, queue = self._select()
            finish, job = queue[0]
            if not try_start(job):
                break
            queue.popleft()
            self._n -= 1
            self._virtual = finish
            started = True
        return started

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0


class DRRQueue:
    """Deficit round-robin across per-tenant FIFO queues."""

    name = "drr"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        # The quantum must cover the largest quota or that job's tenant
        # would need several silent visits to accumulate eligibility (the
        # classical DRR livelock guard).
        self._quantum = max((job.quota for job in jobs), default=1)
        self._queues: dict[int, deque[Job]] = {}
        self._deficit: dict[int, int] = {}
        self._ring: list[int] = []
        self._cursor = 0
        self._n = 0

    def submit(self, job: Job) -> None:
        """Append an arriving job to its tenant's queue."""
        tenant = job.user_id
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._deficit[tenant] = 0
            self._ring.append(tenant)
        queue.append(job)
        self._n += 1

    def head(self) -> Job | None:
        """The next job the cursor would offer (None when empty)."""
        for i in range(len(self._ring)):
            queue = self._queues[self._ring[(self._cursor + i) % len(self._ring)]]
            if queue:
                return queue[0]
        return None

    def start_jobs(self, try_start) -> bool:
        """One DRR pass: visit tenants until a full lap starts nothing."""
        started = False
        idle_visits = 0
        while self._n and idle_visits < len(self._ring):
            tenant = self._ring[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._ring)
            queue = self._queues[tenant]
            if not queue:
                idle_visits += 1
                continue
            self._deficit[tenant] += self._quantum
            progressed = False
            while queue and self._deficit[tenant] >= queue[0].quota:
                if not try_start(queue[0]):
                    break
                job = queue.popleft()
                self._n -= 1
                self._deficit[tenant] -= job.quota
                progressed = started = True
            if not queue:
                # An idle tenant must not bank credit (standard DRR).
                self._deficit[tenant] = 0
            idle_visits = 0 if progressed else idle_visits + 1
        return started

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0


#: Scheduler name -> oracle discipline class (``fcfs``/``easy`` live
#: inline in the loop engine).
DISCIPLINES = {"wfq": WFQQueue, "drr": DRRQueue}
