"""Scheduler invariants checked on a run's ``JobResult`` list alone.

The checks read only the recorded ``arrival``, ``start``, ``completion``
and ``held`` of each job -- no simulator state, queue or policy object --
so a bug the simulator and its loop-engine twin share still shows here:

* no job starts before it arrives;
* the processors held by running jobs never exceed the machine size;
* under strict FCFS, jobs start in ``(arrival, job_id)`` order.

EASY's reservation guarantee and a GPS bound for ``wfq``/``drr`` are not
checked here.
"""

from __future__ import annotations

__all__ = ["assert_schedule_invariants", "peak_held"]


def peak_held(jobs) -> int:
    """Most processors held at once over the run.

    A job holds its processors over ``[start, completion)``: at equal
    times releases count before acquisitions, since a completion frees
    processors for a job starting at that same instant.
    """
    events = []
    for j in jobs:
        held = j.held if j.held else j.size
        events.append((j.completion, 0, -held))
        events.append((j.start, 1, held))
    events.sort()
    busy = peak = 0
    for _, _, delta in events:
        busy += delta
        peak = max(peak, busy)
    return peak


def assert_schedule_invariants(jobs, n_nodes: int, scheduler: str) -> None:
    """Assert the module's invariants over one run's ``JobResult`` list."""
    for j in jobs:
        assert j.start >= j.arrival, f"job {j.job_id} starts before it arrives"
        assert j.completion >= j.start, f"job {j.job_id} completes before it starts"
    peak = peak_held(jobs)
    assert peak <= n_nodes, f"{peak} processors held on a {n_nodes}-node machine"
    if scheduler == "fcfs":
        starts = [j.start for j in sorted(jobs, key=lambda j: (j.arrival, j.job_id))]
        inversions = [i for i in range(1, len(starts)) if starts[i] < starts[i - 1]]
        assert not inversions, f"FCFS start order broken at positions {inversions}"
