"""Bench: the mesh link-accounting fast path survives the topology layer.

The pluggable ``Topology`` protocol added graph-routed Clos fabrics
behind the same interfaces the meshes use.  Meshes must keep their
pre-protocol closed forms: ``link_space_for`` has to return the *cached
vectorised* :class:`LinkSpace` (identity, not a graph-space wrapper),
and the batched difference-array accumulation has to stay far ahead of
the per-message routing loop it replaced.  The Clos side pins its own
vectorised claim -- masked hop templates must beat per-message routing
too, or ``GraphLinkSpace.accumulate_route_loads`` is decoration.  Its
per-message reference walks the fabric's scalar route from
``oracles.routing`` (``ClosTopology.route`` itself is now read off the
template, one message at a time).
"""

import time

import numpy as np
from oracles.routing import route_path

from repro.mesh.clos import FatTree
from repro.mesh.topology import Mesh
from repro.network.fluid import FluidNetwork, NetworkParams
from repro.network.links import LinkSpace, link_space_for

MESH = Mesh(16, 22)
N_MESSAGES = 4000
SEED = 11


def _message_batch(n_nodes):
    rng = np.random.default_rng(SEED)
    return (
        rng.integers(0, n_nodes, size=N_MESSAGES),
        rng.integers(0, n_nodes, size=N_MESSAGES),
        rng.random(N_MESSAGES),
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _per_message_reference(space, src, dst, weight):
    loads = np.zeros(space.n_links)
    for s, d, w in zip(src, dst, weight):
        for link in space.links_on_route(int(s), int(d)):
            loads[link] += w
    return loads


def _per_message_scalar_route(fabric, space, src, dst, weight):
    loads = np.zeros(space.n_links)
    for s, d, w in zip(src, dst, weight):
        path = route_path(fabric, int(s), int(d))
        for u, v in zip(path, path[1:]):
            loads[space.link_id(u, v)] += w
    return loads


def test_mesh_dispatch_is_the_cached_fast_path():
    """Identity, not equivalence: no wrapper object on the mesh path."""
    space = link_space_for(MESH)
    assert isinstance(space, LinkSpace)
    assert space is LinkSpace.for_mesh(MESH)
    assert space is link_space_for(MESH)
    assert FluidNetwork(MESH, NetworkParams()).space is space


def test_mesh_batched_accumulation_beats_routing_loop(benchmark):
    space = link_space_for(MESH)
    src, dst, weight = _message_batch(MESH.n_nodes)
    t_fast, fast = _best_of(lambda: space.accumulate_route_loads(src, dst, weight))
    t_ref, ref = _best_of(
        lambda: _per_message_reference(space, src, dst, weight), repeats=1
    )
    np.testing.assert_allclose(fast, ref)
    speedup = t_ref / t_fast
    benchmark.extra_info["mesh_speedup"] = round(speedup, 1)
    print(
        f"\n[mesh 16x22] batched {N_MESSAGES / t_fast:,.0f} msgs/s, "
        f"per-message {N_MESSAGES / t_ref:,.0f} msgs/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"mesh difference-array accumulation only {speedup:.1f}x the "
        "per-message routing loop (floor 5x)"
    )
    benchmark.pedantic(
        space.accumulate_route_loads, args=(src, dst, weight),
        rounds=1, iterations=1,
    )


def test_clos_template_accumulation_beats_routing_loop(benchmark):
    fabric = FatTree(8)
    space = fabric.link_space()
    src, dst, weight = _message_batch(fabric.n_nodes)
    t_fast, fast = _best_of(lambda: space.accumulate_route_loads(src, dst, weight))
    t_ref, ref = _best_of(
        lambda: _per_message_scalar_route(fabric, space, src, dst, weight),
        repeats=1,
    )
    np.testing.assert_allclose(fast, ref)
    speedup = t_ref / t_fast
    benchmark.extra_info["clos_speedup"] = round(speedup, 1)
    print(
        f"\n[fattree:k=8] batched {N_MESSAGES / t_fast:,.0f} msgs/s, "
        f"per-message {N_MESSAGES / t_ref:,.0f} msgs/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"Clos masked-template accumulation only {speedup:.1f}x the "
        "per-message routing loop (floor 5x)"
    )
    benchmark.pedantic(
        space.accumulate_route_loads, args=(src, dst, weight),
        rounds=1, iterations=1,
    )
