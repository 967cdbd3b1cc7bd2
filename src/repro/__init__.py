"""repro: reproduction of "Communication Patterns and Allocation Strategies".

Leung, Bunde & Mache (SAND2003-4522 / IPPS 2004) compare processor
allocation strategies on mesh-connected, space-shared machines under
different communication patterns.  This package implements the full system:
the allocators (:mod:`repro.core`), the mesh machine and network substrates
(:mod:`repro.mesh`, :mod:`repro.network`), the communication patterns
(:mod:`repro.patterns`), the FCFS trace-driven simulator (:mod:`repro.sched`),
the workload substrate (:mod:`repro.trace`), the parallel experiment
engine with result caching (:mod:`repro.runner`), declarative campaign
files with resumable manifests (:mod:`repro.campaign`), and drivers
regenerating every figure and table of the paper
(:mod:`repro.experiments`).

Quickstart::

    from repro import Mesh, Machine, make_allocator, Request

    mesh = Mesh(16, 16)
    machine = Machine(mesh)
    alloc = make_allocator("hilbert+bf").allocate(Request(size=30), machine)
    machine.allocate(alloc.nodes, job_id=0)

See ``examples/`` for runnable scenarios and docs/architecture.md for the system map.
"""

from repro.core import (
    Allocation,
    Allocator,
    Request,
    get_curve,
    make_allocator,
    paper_allocators,
)
from repro.mesh import Machine, Mesh
from repro.patterns import get_pattern
from repro.runner import ExperimentSpec, ResultCache, run_many
from repro.trace import TraceStore

__version__ = "2.0.0"

__all__ = [
    "Mesh",
    "Machine",
    "Request",
    "Allocation",
    "Allocator",
    "make_allocator",
    "paper_allocators",
    "get_curve",
    "get_pattern",
    "ExperimentSpec",
    "ResultCache",
    "TraceStore",
    "run_many",
    "__version__",
]
