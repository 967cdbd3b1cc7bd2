"""Cross-validation of the flit and fluid engines (docs/substitutions.md
substitution #2).

The fluid engine replaces the flit microsimulator for full-trace sweeps;
these tests check the two engines order scenarios the same way -- the
property the trace experiments rely on.
"""

import numpy as np
import pytest

from repro.core.base import Request
from repro.core.registry import make_allocator
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh
from repro.network.flit import FlitNetwork, FlitParams
from repro.network.fluid import FluidNetwork, NetworkParams
from repro.network.traffic import build_load_vector, mean_message_hops
from repro.patterns import AllToAll, NBody


def flit_time_per_message(mesh, nodes, pattern, p, repeats=3):
    """Mean per-message completion time of a BSP run on the flit engine."""
    net = FlitNetwork(mesh, FlitParams(flit_time=1e-3, router_delay=2e-3))
    rounds = pattern.rounds(p) * repeats
    n_msgs = sum(len(r) for r in rounds)
    finish = net.run_bsp({0: (nodes, rounds)}, message_flits=64)
    return finish[0] / n_msgs


def fluid_time_per_message(mesh, nodes, pattern, p):
    """1 / rate of a solo flow on the fluid engine (latency term only)."""
    params = NetworkParams(issue_rate=1e9)  # isolate network time
    net = FluidNetwork(mesh, params)
    pairs = pattern.cycle(p)
    loads = build_load_vector(mesh, nodes, pairs, params.message_flits)
    net.add_flow(0, loads, mean_message_hops(mesh, nodes, pairs))
    return 1.0 / net.rates_vector()[0]


@pytest.fixture
def mesh():
    return Mesh(16, 16)


def allocations_of_increasing_dispersal(mesh, k, seed=0):
    """Compact allocation plus progressively scattered variants."""
    machine = Machine(mesh)
    base = make_allocator("hilbert+bf").allocate(Request(size=k), machine).nodes
    rng = np.random.default_rng(seed)
    out = [base]
    for frac in (0.3, 0.7):
        nodes = base.copy()
        n_move = int(frac * k)
        idx = rng.choice(k, size=n_move, replace=False)
        outside = np.setdiff1d(np.arange(mesh.n_nodes), base)
        nodes[idx] = rng.choice(outside, size=n_move, replace=False)
        out.append(nodes)
    return out


class TestEngineAgreement:
    @pytest.mark.parametrize("pattern", [AllToAll(), NBody()], ids=lambda p: p.name)
    def test_dispersal_ordering_agrees(self, mesh, pattern):
        """Both engines rank allocations identically by dispersal."""
        k = 16
        allocations = allocations_of_increasing_dispersal(mesh, k)
        flit = [flit_time_per_message(mesh, n, pattern, k) for n in allocations]
        fluid = [fluid_time_per_message(mesh, n, pattern, k) for n in allocations]
        assert flit == sorted(flit), "flit engine: dispersal must slow jobs"
        assert fluid == sorted(fluid), "fluid engine: dispersal must slow jobs"

    def test_relative_slowdown_comparable_when_serialised(self, mesh):
        """Issuing messages one at a time (the fluid model's discipline),
        the dispersed/compact slowdown ratios of the two engines agree.

        Both reduce to (mean hops)-driven latency: flit uses per-hop router
        delay, fluid uses ``hop_latency``; the ratio cancels the constants.
        """
        k = 16
        pattern = AllToAll()
        compact, _, dispersed = allocations_of_increasing_dispersal(mesh, k)

        def serial_flit(nodes):
            # one message per round: fully serialised issue
            net = FlitNetwork(mesh, FlitParams(flit_time=1e-5, router_delay=1e-2))
            rounds = [pairs[None, :] for pairs in pattern.cycle(k)]
            n_msgs = len(rounds)
            finish = net.run_bsp({0: (nodes, rounds)}, message_flits=64)
            return finish[0] / n_msgs

        flit_ratio = serial_flit(dispersed) / serial_flit(compact)
        fluid_ratio = fluid_time_per_message(
            mesh, dispersed, pattern, k
        ) / fluid_time_per_message(mesh, compact, pattern, k)
        assert flit_ratio > 1 and fluid_ratio > 1
        assert 0.5 < fluid_ratio / flit_ratio < 2.0

    def test_both_engines_prefer_ring_coherent_nbody(self, mesh):
        """An allocation that is ring-coherent (curve order) beats the same
        node set in scrambled rank order for n-body, on both engines."""
        k = 16
        pattern = NBody()
        machine = Machine(mesh)
        nodes = make_allocator("hilbert+bf").allocate(Request(size=k), machine).nodes
        rng = np.random.default_rng(5)
        scrambled = nodes.copy()
        rng.shuffle(scrambled)
        for engine in (flit_time_per_message, fluid_time_per_message):
            coherent = engine(mesh, nodes, pattern, k)
            shuffled = engine(mesh, scrambled, pattern, k)
            assert coherent < shuffled, engine.__name__
