"""Registry of queueing disciplines and priority policies.

The paper schedules FCFS only ("our focus is on allocation rather than
scheduling"); the fairness subsystem widens the question to *who* waits
under contention.  This module is the single source of truth for which
disciplines exist.  Each is an object with one interface, ``submit``,
``head``, ``len`` and ``start_jobs(try_start, now, reserve)``, which the
simulator calls at its two start sites.  ``try_start(job)`` places and
starts a job (False, with no side effect, when it cannot);
``reserve(head)`` gives the blocked head's ``(shadow time, spare
processors)``, and only EASY asks for it.

``fcfs``
    Strict FIFO, the paper's policy: the head blocks every later job.
``easy``
    FCFS plus EASY backfill behind the blocked head.  The window test
    uses the optimistic quota-seconds runtime, so a backfilled job can
    overrun the head's shadow time.
``wfq``
    Weighted fair queueing over priority classes (self-clocked fair
    queueing): each class keeps a FIFO of its jobs; a job arriving in
    class ``c`` is stamped with a virtual finish tag
    ``max(V, F_c) + quota / class_weight(c)`` and the discipline always
    offers the pending job with the smallest ``(finish_tag, class)``.
    Like FCFS the selected head blocks: nothing later starts until it
    fits.
``drr``
    Deficit round-robin across *tenant* queues (one FIFO per
    ``user_id``).  A persistent cursor visits tenants in first-seen
    order; each visit grants one quantum (the maximum quota in the
    trace, so every head is eligible on its first visit) and starts
    jobs while the tenant's deficit covers their quota and the machine
    can place them.  A tenant that cannot start its head forfeits the
    visit; the pass ends after a full silent lap.

The loop-engine test oracle keeps its own copies of all four, so the
equivalence suites check these objects against code they do not share.

Priority policies (:func:`apply_priority`) assign ``priority_class`` to
jobs at spec-build time:

``"user:<k>"``
    Class ``user_id % k`` (tenants with unknown user stay class 0).
``"rr:<k>"``
    Class ``job_id % k`` -- a tenant-free way to exercise classes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.sched.job import Job

__all__ = [
    "SCHEDULERS",
    "scheduler_names",
    "validate_scheduler",
    "make_discipline",
    "class_weight",
    "validate_priority",
    "apply_priority",
    "FCFSQueue",
    "EasyQueue",
    "WFQQueue",
    "DRRQueue",
]

#: Rounding slack on EASY's window test.
_WINDOW_SLACK = 1e-9


def class_weight(priority_class: int) -> float:
    """Service weight of a priority class (class 0 -> 1.0, linear).

    Higher classes finish their virtual service faster, so under ``wfq``
    a class-1 job of quota ``q`` is tagged as if it were a class-0 job
    of quota ``q / 2``.
    """
    return 1.0 + priority_class


class FCFSQueue:
    """Strict first-come-first-serve: the head blocks all later jobs."""

    name = "fcfs"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        self._queue: deque[Job] = deque()

    def submit(self, job: Job) -> None:
        """Append an arriving job."""
        self._queue.append(job)

    def head(self) -> Job | None:
        """The blocking job at the front (None when empty)."""
        return self._queue[0] if self._queue else None

    def start_jobs(self, try_start, now: float, reserve) -> bool:
        """Start jobs in arrival order until the head fails to place."""
        started = False
        while self._queue and try_start(self._queue[0]):
            self._queue.popleft()
            started = True
        return started

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class EasyQueue(FCFSQueue):
    """FCFS plus EASY backfill behind the blocked head (an extension)."""

    name = "easy"

    def start_jobs(self, try_start, now: float, reserve) -> bool:
        """The FCFS pass, then backfill behind the head it left blocked.

        A later job starts if it ends by the shadow time at the 1 msg/s
        issue floor (``quota`` seconds), or fits in the spare processors.
        Each backfilled start moves the reservation, so it is re-asked
        before the next candidate; with no candidate left to test (none
        behind the head, or after the last one) it is not asked.
        """
        started = super().start_jobs(try_start, now, reserve)
        if len(self._queue) < 2:
            return started
        head = self._queue[0]
        candidates = list(self._queue)[1:]
        shadow, spare = reserve(head)
        for i, job in enumerate(candidates, 1):
            fits_window = now + job.quota <= shadow + _WINDOW_SLACK
            if (fits_window or job.size <= spare) and try_start(job):
                self._queue.remove(job)
                started = True
                if i < len(candidates):
                    shadow, spare = reserve(head)
        return started


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

    def start_jobs(self, try_start, now: float, reserve) -> bool:
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

    def start_jobs(self, try_start, now: float, reserve) -> bool:
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


#: name -> discipline class.
SCHEDULERS: dict[str, type] = {
    "fcfs": FCFSQueue,
    "easy": EasyQueue,
    "wfq": WFQQueue,
    "drr": DRRQueue,
}


def scheduler_names() -> tuple[str, ...]:
    """Registered discipline names, in registration order."""
    return tuple(SCHEDULERS)


def validate_scheduler(scheduler: str) -> str:
    """Return ``scheduler`` or raise ValueError naming every known one."""
    if scheduler not in SCHEDULERS:
        known = ", ".join(repr(name) for name in SCHEDULERS)
        raise ValueError(f"scheduler must be one of {known}, got {scheduler!r}")
    return scheduler


def make_discipline(scheduler: str, jobs: Sequence[Job]):
    """A fresh, empty discipline object for ``scheduler``.

    ``jobs`` is the full sorted trace -- disciplines may precompute
    trace-wide constants from it (DRR sizes its quantum to the largest
    quota) but must not assume arrival order beyond what ``submit``
    delivers.

    >>> [type(make_discipline(name, [])).__name__ for name in scheduler_names()]
    ['FCFSQueue', 'EasyQueue', 'WFQQueue', 'DRRQueue']
    """
    return SCHEDULERS[validate_scheduler(scheduler)](jobs)


def _parse_priority(policy: str) -> tuple[str, int]:
    kind, sep, arg = policy.partition(":")
    if kind not in ("user", "rr") or not sep:
        raise ValueError(
            f"priority policy must be 'user:<k>' or 'rr:<k>', got {policy!r}"
        )
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(f"priority policy {policy!r}: class count {arg!r} is not an integer") from None
    if k < 1:
        raise ValueError(f"priority policy {policy!r}: class count must be >= 1")
    return kind, k


def validate_priority(policy: str | None) -> str | None:
    """Return ``policy`` or raise ValueError describing the grammar."""
    if policy is not None:
        _parse_priority(policy)
    return policy


def apply_priority(jobs: Iterable[Job], policy: str | None) -> list[Job]:
    """Jobs with ``priority_class`` assigned by ``policy``.

    ``None`` leaves the trace's own classes untouched.  ``"user:<k>"``
    maps known tenants onto ``user_id % k`` (unknown tenants stay class
    0); ``"rr:<k>"`` round-robins classes by job id regardless of
    tenancy.
    """
    jobs = list(jobs)
    if policy is None:
        return jobs
    kind, k = _parse_priority(policy)
    out = []
    for job in jobs:
        if kind == "user":
            cls = job.user_id % k if job.user_id >= 0 else 0
        else:
            cls = job.job_id % k
        out.append(job if cls == job.priority_class else replace(job, priority_class=cls))
    return out
