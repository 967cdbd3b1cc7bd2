"""Property-based invariants every registered allocator must satisfy.

For every registry name, across randomized occupancy states and request
sizes, a successful allocation must return processors that are free,
distinct and exactly ``request.size`` long, with ``held`` a free superset
of ``nodes`` -- and the allocator must never mutate the machine (the
paper's separation of policy from mechanism: "the allocator is a separate
module from the scheduler", Section 1).

The same invariants hold on 3-D tori for every 3-D-capable strategy
(``allocator_names_3d``); everything else must refuse a 3-D machine with
a :class:`ValueError` rather than emit garbage placements.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import Request
from repro.core.registry import (
    allocator_names,
    allocator_names_3d,
    make_allocator,
)
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

MESH = Mesh(8, 8)

#: The fig12 tori the 3-D invariants sweep (small and full size).
MESHES_3D = (Mesh(4, 4, 4, torus=True), Mesh(8, 8, 8, torus=True))


def _random_machine_on(
    mesh, occupancy_seed: int, busy_fraction: float
) -> Machine:
    """Machine with a seeded random subset of processors occupied."""
    machine = Machine(mesh)
    rng = np.random.default_rng(occupancy_seed)
    n_busy = int(busy_fraction * mesh.n_nodes)
    if n_busy:
        busy = rng.choice(mesh.n_nodes, size=n_busy, replace=False)
        machine.allocate(busy, job_id=777)
    return machine


def _random_machine(occupancy_seed: int, busy_fraction: float) -> Machine:
    return _random_machine_on(MESH, occupancy_seed, busy_fraction)


@pytest.mark.parametrize("name", allocator_names())
@settings(max_examples=20, deadline=None)
@given(
    occupancy_seed=st.integers(min_value=0, max_value=2**31 - 1),
    busy_fraction=st.floats(min_value=0.0, max_value=0.9),
    size_fraction=st.floats(min_value=0.0, max_value=1.0),
    pattern_hint=st.sampled_from([None, "all-to-all", "n-body", "ring", "random"]),
)
def test_allocation_invariants(
    name, occupancy_seed, busy_fraction, size_fraction, pattern_hint
):
    machine = _random_machine(occupancy_seed, busy_fraction)
    # Request sizes span [1, n_free]: always satisfiable processor-wise,
    # though shape-constrained strategies may still legitimately refuse.
    size = max(1, round(size_fraction * machine.n_free)) if machine.n_free else 1

    free_before = machine.snapshot()
    owner_before = machine.owner.copy()

    allocator = make_allocator(name)
    allocation = allocator.allocate(
        Request(size=size, job_id=1, pattern_hint=pattern_hint), machine
    )

    # The allocator is pure policy: the machine must be untouched whether
    # or not the request succeeded.
    assert np.array_equal(machine.snapshot(), free_before), name
    assert np.array_equal(machine.owner, owner_before), name

    if allocation is None:
        return

    nodes, held = allocation.nodes, allocation.held
    assert len(nodes) == size, f"{name}: wrong allocation size"
    assert len(np.unique(nodes)) == len(nodes), f"{name}: duplicate nodes"
    assert len(np.unique(held)) == len(held), f"{name}: duplicate held nodes"
    assert np.isin(nodes, held).all(), f"{name}: node not held"
    assert free_before[held].all(), f"{name}: allocated busy processors"
    assert np.all((held >= 0) & (held < MESH.n_nodes)), f"{name}: node out of range"


@pytest.mark.parametrize("mesh", MESHES_3D, ids=lambda m: "x".join(map(str, m.shape)))
@pytest.mark.parametrize("name", allocator_names_3d())
@settings(max_examples=10, deadline=None)
@given(
    occupancy_seed=st.integers(min_value=0, max_value=2**31 - 1),
    busy_fraction=st.floats(min_value=0.0, max_value=0.9),
    size_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_allocation_invariants_3d(
    name, mesh, occupancy_seed, busy_fraction, size_fraction
):
    """No-overlap / in-bounds / exact-size invariants on 3-D tori."""
    machine = _random_machine_on(mesh, occupancy_seed, busy_fraction)
    size = max(1, round(size_fraction * machine.n_free)) if machine.n_free else 1

    free_before = machine.snapshot()
    allocation = make_allocator(name).allocate(
        Request(size=size, job_id=1), machine
    )
    assert np.array_equal(machine.snapshot(), free_before), name
    if allocation is None:
        return

    nodes, held = allocation.nodes, allocation.held
    assert len(nodes) == size, f"{name}: wrong allocation size"
    assert len(np.unique(nodes)) == len(nodes), f"{name}: duplicate nodes"
    assert np.isin(nodes, held).all(), f"{name}: node not held"
    assert free_before[held].all(), f"{name}: allocated busy processors"
    assert np.all((held >= 0) & (held < mesh.n_nodes)), f"{name}: out of range"
    machine.allocate(held, job_id=1)  # raises on any violation
    machine.release(held)


@pytest.mark.parametrize(
    "name", sorted(set(allocator_names()) - set(allocator_names_3d()))
)
def test_2d_only_allocators_raise_on_3d_mesh(name):
    """2-D-only strategies must refuse a 3-D machine, not emit garbage."""
    machine = Machine(Mesh(4, 4, 4, torus=True))
    with pytest.raises(ValueError):
        make_allocator(name).allocate(Request(size=4, job_id=1), machine)


@pytest.mark.parametrize("name", allocator_names())
def test_infeasible_request_returns_none_without_mutation(name):
    """More processors than exist can never be satisfied."""
    machine = _random_machine(occupancy_seed=5, busy_fraction=0.5)
    free_before = machine.snapshot()
    allocation = make_allocator(name).allocate(
        Request(size=MESH.n_nodes + 1, job_id=2), machine
    )
    assert allocation is None
    assert np.array_equal(machine.snapshot(), free_before)


@pytest.mark.parametrize("name", allocator_names())
def test_allocation_applies_cleanly(name):
    """A returned allocation must be acceptable to Machine.allocate."""
    machine = _random_machine(occupancy_seed=11, busy_fraction=0.4)
    allocation = make_allocator(name).allocate(Request(size=8, job_id=3), machine)
    if allocation is None:  # shape-constrained strategies may refuse
        return
    machine.allocate(allocation.held, job_id=3)  # raises on any violation
    machine.release(allocation.held)
