"""Host-speed calibration: what the timed figures are normalised by.

The 2-CPU virtual machine the benchmark was written on shares its host,
and its speed drifts with its neighbours' load: identical warm passes
ran up to 1.6x slower from one few-second stretch to the next, and a
process's CPU time drifted with its wall time, so neither longer windows
nor CPU clocks remove the drift.  A
fixed reference computation, :func:`probe`, is timed between ops (never
inside one) about every ``EVERY_S`` seconds.  Its mean over a window
says how slow the host was during that window, and every timing of the
window is scaled by ``REF_PROBE_S / mean``: it then reads as the time on
the host at the speed where the probe takes ``REF_PROBE_S``.  The probe
runs no code of the program under test, so a change to the program moves
the scaled figures in the same proportion as the measured ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds :func:`probe` took, median over minutes of probing, on the
#: 2-CPU virtual machine the benchmark was defined on.
REF_PROBE_S = 0.0114
#: Least seconds between two probes of one window.
EVERY_S = 0.25


def probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    a = np.arange(20_000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns times measured while the probe took ``samples``
    into reference host times (below 1 when the host ran slow)."""
    return REF_PROBE_S * len(samples) / sum(samples)


class Sampler:
    """Probes the host at op boundaries, at most once per ``EVERY_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = [probe()]
        self._next = time.perf_counter() + EVERY_S

    def between_ops(self) -> None:
        if time.perf_counter() >= self._next:
            self.samples.append(probe())
            self._next = time.perf_counter() + EVERY_S

    def scale(self) -> float:
        return scale(self.samples)
