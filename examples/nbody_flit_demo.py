#!/usr/bin/env python
"""Watch allocation quality change an n-body job's life at the flit level.

Builds the paper's Fig 5 message schedule (15-processor n-body: seven ring
subphases plus a chordal subphase), then runs it through the wormhole
microsimulator twice -- once on a ring-coherent curve allocation, once on
the same processors in scrambled rank order -- and once against a
contending neighbour job.  Dispersal and ring scrambling both slow the
computation; a neighbour stretches it further.

Run:  python examples/nbody_flit_demo.py
"""

import numpy as np

from repro import Machine, Mesh, Request, make_allocator
from repro.network.flit import FlitNetwork, FlitParams
from repro.network.traffic import mean_message_hops
from repro.patterns import NBody

P = 15
REPEATS = 5

mesh = Mesh(16, 16)
pattern = NBody()
rounds = pattern.rounds(P) * REPEATS
print(
    f"n-body with {P} processors: {NBody.n_ring_subphases(P)} ring subphases "
    f"+ 1 chordal subphase per cycle, {pattern.messages_per_cycle(P)} messages"
)
print("ring subphase:", ", ".join(f"{s}->{d}" for s, d in pattern.rounds(P)[0][:5]), "...")
print("chordal subphase:", ", ".join(f"{s}->{d}" for s, d in pattern.rounds(P)[-1][:5]), "...")

net = FlitNetwork(mesh, FlitParams(flit_time=1e-3, router_delay=2e-3))

# 1. Ring-coherent allocation: consecutive ranks adjacent along the curve.
machine = Machine(mesh)
coherent = make_allocator("hilbert+bf").allocate(Request(size=P), machine).nodes

# 2. Same processors, scrambled rank order: the virtual ring zig-zags.
scrambled = coherent.copy()
np.random.default_rng(3).shuffle(scrambled)

pairs = pattern.cycle(P)
for label, nodes in [("curve-ordered", coherent), ("scrambled ring", scrambled)]:
    finish = net.run_bsp({0: (nodes, rounds)}, message_flits=64)
    hops = mean_message_hops(mesh, nodes, pairs)
    print(
        f"{label:15s} mean message distance = {hops:5.2f} hops, "
        f"simulated time = {finish[0]:7.3f} s"
    )

# 3. Add a contending neighbour: a second n-body job interleaved nearby.
neighbour = make_allocator("hilbert+bf")
machine.allocate(coherent, job_id=0)
other = neighbour.allocate(Request(size=P, job_id=1), machine).nodes
finish = net.run_bsp(
    {0: (coherent, rounds), 1: (other, rounds)}, message_flits=64
)
print(
    f"{'with neighbour':15s} job 0 time = {finish[0]:7.3f} s, "
    f"job 1 time = {finish[1]:7.3f} s (link contention at work)"
)
