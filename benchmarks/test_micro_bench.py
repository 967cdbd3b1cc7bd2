"""Micro-benchmarks of the hot paths (profiling-driven, per the
hpc-parallel guide: measure before optimising).

These are true repeated-timing benchmarks: allocator decision latency on a
half-fragmented machine, curve construction, vectorised link-load
accumulation, the max-min water-filling solver, and flit-engine event
throughput.
"""

import numpy as np
import pytest

from repro.core.base import Request
from repro.core.curves import _CACHE, get_curve, hilbert_points
from repro.core.registry import make_allocator
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.network.flit import FlitNetwork, FlitParams
from repro.network.fluid import max_min_rates
from repro.network.links import LinkSpace
from repro.patterns import AllToAll


@pytest.fixture()
def fragmented_machine():
    """16x22 machine at ~50% occupancy with scattered holes."""
    mesh = Mesh(16, 22)
    machine = Machine(mesh)
    rng = np.random.default_rng(42)
    busy = rng.choice(mesh.n_nodes, size=176, replace=False)
    machine.allocate(busy, job_id=999)
    return machine


@pytest.mark.parametrize(
    "name",
    ["hilbert+bf", "hilbert", "s-curve+ff", "h-indexing+ss", "mc", "mc1x1", "gen-alg"],
)
def test_allocator_decision_latency(benchmark, fragmented_machine, name):
    """Single allocation decision on a realistic half-full machine."""
    allocator = make_allocator(name)
    request = Request(size=24, job_id=1)
    allocator.allocate(request, fragmented_machine)  # warm caches
    result = benchmark(allocator.allocate, request, fragmented_machine)
    assert result is not None and len(result.nodes) == 24


def test_hilbert_point_generation(benchmark):
    """Raw 64x64 Hilbert index -> coordinate conversion."""
    pts = benchmark(hilbert_points, 6)
    assert len(pts) == 4096


def test_curve_construction_uncached(benchmark):
    """Full Curve build for the 16x22 mesh (truncation included)."""

    def build():
        _CACHE.clear()
        return get_curve("hilbert", Mesh(16, 22))

    curve = benchmark(build)
    assert curve.n_nodes == 352


def test_link_load_accumulation(benchmark):
    """Vectorised per-link loads for a 128-proc all-to-all cycle."""
    mesh = Mesh(16, 22)
    space = LinkSpace.for_mesh(mesh)
    rng = np.random.default_rng(0)
    nodes = rng.choice(mesh.n_nodes, size=128, replace=False)
    pairs = AllToAll().cycle(128)
    src = nodes[pairs[:, 0]]
    dst = nodes[pairs[:, 1]]
    loads = benchmark(space.accumulate_route_loads, src, dst)
    assert loads.sum() > 0


def test_max_min_solver(benchmark):
    """Water-filling over 40 flows x 1332 links (16x22 link count)."""
    rng = np.random.default_rng(1)
    weights = rng.random((40, 1332)) * (rng.random((40, 1332)) < 0.05)
    capacities = np.full(1332, 200.0)
    caps = np.ones(40)
    rates = benchmark(max_min_rates, weights, capacities, caps)
    assert len(rates) == 40


def test_flit_engine_event_rate(benchmark):
    """Deliver a contended 400-message batch on an 8x8 mesh."""
    mesh = Mesh(8, 8)
    net = FlitNetwork(mesh, FlitParams(flit_time=0.1, router_delay=0.1))
    rng = np.random.default_rng(2)
    batch = [
        (0.0, int(s), int(d), 16)
        for s, d in zip(rng.integers(0, 64, 400), rng.integers(0, 64, 400))
    ]
    msgs = benchmark(net.deliver, batch)
    assert all(m.delivered_at >= 0 for m in msgs)
