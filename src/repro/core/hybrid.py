"""Pattern-aware hybrid allocation (the paper's closing proposal).

Section 5: "Obviously, the ideal is to find a general purpose allocation
algorithm that works reasonably well for all types of problems, but a
strategy to harness the strengths of different algorithms would also be
useful."

:class:`HybridAllocator` is that strategy: it dispatches each request to a
sub-allocator chosen by the job's communication-pattern hint (the
:attr:`repro.core.base.Request.pattern_hint` field -- information the paper
argues future systems should gather from users, just as it argues for shape
information).  The default rules encode the paper's own findings: MC for
all-to-all-like traffic, curve + Best Fit for ring-like (n-body) traffic,
Hilbert + Best Fit otherwise.

``benchmarks/test_hybrid_bench.py`` evaluates it on a mixed-pattern
workload against every fixed strategy.
"""

from __future__ import annotations

from repro.core.base import MESH_2D, Allocation, Allocator, Request
from repro.mesh.machine import Machine

__all__ = ["HybridAllocator", "default_rules"]


def default_rules() -> dict[str, Allocator]:
    """The paper-informed dispatch table (pattern name -> allocator)."""
    from repro.core.registry import make_allocator

    return {
        "all-to-all": make_allocator("mc"),
        "all-to-all-broadcast": make_allocator("mc"),
        "random": make_allocator("hilbert+bf"),
        "n-body": make_allocator("hilbert+bf"),
        "ring": make_allocator("hilbert+bf"),
    }


class HybridAllocator(Allocator):
    """Dispatch requests to sub-allocators by communication-pattern hint.

    Parameters
    ----------
    rules:
        ``{pattern_name: allocator}`` dispatch table (default:
        :func:`default_rules`).
    fallback:
        Allocator for requests without a hint or with an unknown hint
        (default: Hilbert + Best Fit, the paper's most robust strategy).
    """

    name = "hybrid"
    #: The default dispatch table mixes 2-D-only sub-allocators (MC), so
    #: the hybrid refuses 3-D meshes up front rather than mid-workload.
    places_on = frozenset({MESH_2D})

    def __init__(
        self,
        rules: dict[str, Allocator] | None = None,
        fallback: Allocator | None = None,
    ):
        from repro.core.registry import make_allocator

        self.rules = dict(rules) if rules is not None else default_rules()
        self.fallback = fallback or make_allocator("hilbert+bf")

    def _place(self, request: Request, machine: Machine) -> Allocation | None:
        chosen = self.rules.get(request.pattern_hint or "", self.fallback)
        return chosen.allocate(request, machine)

    def sub_allocator_for(self, pattern_name: str | None) -> Allocator:
        """The allocator a given hint dispatches to (introspection)."""
        return self.rules.get(pattern_name or "", self.fallback)
