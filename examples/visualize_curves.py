#!/usr/bin/env python
"""Draw the paper's space-filling curves and their truncation gaps.

Reproduces Fig 2 (the S-curve, Hilbert, and H-indexing orderings) as ASCII
art, then Fig 6: what happens when the 32x32 curves are cut down to the
16x22 machine -- "curves" with gaps along the top edge.

Run:  python examples/visualize_curves.py
"""

from repro import Mesh, get_curve
from repro.viz import render_curve_path, render_curve_ranks, render_truncation

mesh8 = Mesh(8, 8)
labels = {
    "s-curve": "(a) S-curve",
    "hilbert": "(b) Hilbert curve",
    "h-indexing": "(c) H-indexing (closed cycle)",
}
for name, label in labels.items():
    curve = get_curve(name, mesh8)
    print(f"{label}:")
    print(render_curve_path(curve))
    print()

print("Hilbert ranks on a 4x4 mesh (rank = position along the curve):")
print(render_curve_ranks(get_curve("hilbert", Mesh(4, 4))))
print()

# Fig 6: truncation to the 16x22 machine.
mesh = Mesh(16, 22)
for name in ("hilbert", "h-indexing"):
    curve = get_curve(name, mesh)
    print(render_truncation(curve, top_rows=6))
    print(
        f"-> {curve.n_gaps()} gaps; every discontinuity lies in the "
        "truncated upper region, exactly as the paper's Fig 6 arrows show.\n"
    )

# The S-curve stays gap-free on non-square meshes; the paper chose runs
# along the short direction after quick simulations.
s_short = get_curve("s-curve", mesh)
s_long = get_curve("s-curve", mesh, runs="long")
print(
    f"S-curve on 16x22: short-direction runs -> {s_short.n_gaps()} gaps, "
    f"long-direction runs -> {s_long.n_gaps()} gaps (both continuous; the "
    "direction changes packing behaviour, see benchmarks/test_ablations_bench.py)"
)
