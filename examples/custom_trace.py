#!/usr/bin/env python
"""Bring your own workload: SWF files and custom synthetic traces.

Shows the workload substrate end to end:

1. generate a synthetic trace with custom statistics,
2. write it to Standard Workload Format and read it back (the same parser
   accepts the real SDSC Paragon trace from the Parallel Workloads
   Archive),
3. sweep load factors through the simulator, as the paper's Figs 7/8 do.

Run:  python examples/custom_trace.py
"""

import tempfile
from pathlib import Path

from repro import Mesh, make_allocator
from repro.analysis.tables import format_table
from repro.patterns import get_pattern
from repro.sched import Simulation, summarize
from repro.trace import (
    SyntheticTraceConfig,
    apply_load_factor,
    read_swf,
    synthetic_trace,
    write_swf,
)
from repro.trace.synthetic import trace_statistics

# 1. A small cluster workload: 200 jobs, smaller machine, shorter jobs.
config = SyntheticTraceConfig(
    n_jobs=200,
    mean_interarrival=120.0,
    cv_interarrival=2.5,
    mean_size=9.0,
    mean_runtime=900.0,
    cv_runtime=1.2,
    max_size=64,
    n_320_jobs=0,
)
jobs = synthetic_trace(config, seed=123)
stats = trace_statistics(jobs)
print("synthetic trace:", {k: round(v, 2) for k, v in stats.items()})

# 2. SWF round trip -- drop in a real archive trace the same way.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "custom.swf"
    write_swf(jobs, path, header_comments=["synthetic demo trace"])
    jobs = read_swf(path)
print(f"re-read {len(jobs)} jobs from SWF")

# 3. Load-factor sweep on an 8x8 machine (Fig 7/8 style).
mesh = Mesh(8, 8)
rows = []
for load in (1.0, 0.6, 0.2):
    sim = Simulation(
        mesh,
        make_allocator("hilbert+bf"),
        get_pattern("all-to-all"),
        apply_load_factor(jobs, load),
        seed=1,
        load_factor=load,
    )
    s = summarize(sim.run())
    rows.append(
        {
            "load factor": load,
            "mean response (s)": s.mean_response,
            "mean wait (s)": s.mean_wait,
            "stretch": s.mean_stretch,
            "makespan (s)": s.makespan,
        }
    )
print()
print(format_table(rows, title="hilbert+bf on the custom trace", float_fmt=".1f"))
