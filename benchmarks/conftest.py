"""Benchmark harness configuration.

Run with ``pytest benchmarks/ --benchmark-only``.  Every paper figure/table
has one benchmark module that executes its experiment driver at the
``small`` scale (laptop seconds), prints the same rows/series the paper
reports, and asserts the qualitative shape that survives trace scaling.
``--scale medium`` reproductions for the record live in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import SMALL

#: Cores a host needs before the ``timing`` wall-clock ratio gates are
#: asserted.  On 2-core hosts the 2-runner drain and the Pool side of the
#: tier comparisons compete with each other for the same two cores, and
#: their ratios measured 1.5-1.7x against 1.8x and 2.0x floors.
TIMING_CORES = 4


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timing: a wall-clock ratio gate; runs only when selected with "
        f"`-m timing` (the benchmarks CI job) on >= {TIMING_CORES} cores",
    )


def pytest_collection_modifyitems(config, items):
    """Skip the ``timing`` gates unless selected, and below the core budget.

    Their correctness halves (identical results, byte-identical
    artifacts, zero duplicated compute) are separate tests that always run.
    """
    selected = "timing" in (config.getoption("markexpr") or "")
    cores = os.cpu_count() or 1
    if not selected:
        skip = pytest.mark.skip(
            reason="wall-clock ratio gate: run with `-m timing` (benchmarks CI job)"
        )
    elif cores < TIMING_CORES:
        skip = pytest.mark.skip(
            reason=f"wall-clock ratio gate needs >= {TIMING_CORES} cores, host has {cores}"
        )
    else:
        return
    for item in items:
        if item.get_closest_marker("timing") is not None:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def scale():
    """Workload scale shared by all figure benchmarks."""
    return SMALL


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under the benchmark timer.

    The trace experiments are seconds-long end-to-end simulations; a single
    timed round keeps the suite fast while still recording wall time.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
