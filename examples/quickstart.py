#!/usr/bin/env python
"""Quickstart: allocate jobs on a mesh and inspect allocation quality.

Covers the core public API in ~40 lines:

* build a mesh machine,
* allocate jobs with different strategies from the paper,
* measure the dispersal metrics the paper studies,
* visualise the occupancy.

Run:  python examples/quickstart.py

To reproduce the paper's figures, use the experiments CLI.  The sweep
grids run on the parallel experiment engine (``repro.runner``): ``--jobs
N`` fans independent (allocator, load, pattern) cells out over worker
processes, and results are cached under ``.repro-cache/`` so repeating a
sweep is free::

    python -m repro.experiments fig7 --scale small --jobs 4
    python -m repro.experiments fig7 --scale small --jobs 4   # cache hits
    python -m repro.experiments fig8 --no-cache               # force recompute

See ``examples/compare_allocators.py`` for driving the engine from code.
"""

from repro import Machine, Mesh, Request, make_allocator
from repro.core.metrics import average_pairwise_hops, is_contiguous, n_components
from repro.viz import render_occupancy

# The paper's square machine: a 16x16 mesh of exclusively-dedicated CPUs.
mesh = Mesh(16, 16)
machine = Machine(mesh)

# Allocate a few jobs with the paper's strongest overall strategy:
# the Hilbert space-filling curve with Best Fit bin selection.
hilbert_bf = make_allocator("hilbert+bf")
for job_id, size in enumerate([30, 12, 64, 7]):
    allocation = hilbert_bf.allocate(Request(size=size, job_id=job_id), machine)
    machine.allocate(allocation.held, job_id=job_id)
    print(
        f"job {job_id}: {size:3d} procs  "
        f"avg pairwise hops = {average_pairwise_hops(mesh, allocation.nodes):5.2f}  "
        f"components = {n_components(mesh, allocation.nodes)}  "
        f"contiguous = {is_contiguous(mesh, allocation.nodes)}"
    )

print("\nmachine occupancy (letters = jobs, '.' = free):")
print(render_occupancy(machine))

# Free a job and watch a different strategy fill the hole.
machine.release(machine.busy_nodes()[machine.owner[machine.busy_nodes()] == 1])
mc = make_allocator("mc")  # Mache/Lo/Windisch's shell allocator
allocation = mc.allocate(Request(size=16, job_id=9), machine)
machine.allocate(allocation.held, job_id=9)
print("\nafter freeing job 1 and placing a 16-proc job with MC:")
print(render_occupancy(machine))
