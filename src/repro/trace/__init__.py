"""Workload substrate (Section 3.1).

The paper drives its simulations with "all jobs submitted to the 352-node
NQS partition of the Intel Paragon at the San Diego Supercomputer Center
during the last three months of 1996" -- 6087 jobs whose published moment
statistics this package matches synthetically (the original trace file is
not available offline; see docs/substitutions.md substitution #1):

* mean interarrival 1301 s, coefficient of variation 3.7,
* mean size 14.5 nodes, CV 1.5, "heavily favoring sizes that are powers of
  two", maximum 352 with three 320-node jobs,
* mean runtime 3.04 h, CV 1.13.

:func:`~repro.trace.synthetic.sdsc_paragon_trace` generates the matched
trace; :mod:`repro.trace.swf` reads/writes Standard Workload Format so the
real trace (or any other) can be dropped in unchanged;
:mod:`repro.trace.archive` normalises real Parallel Workloads Archive logs
into the content-addressed workload store (:mod:`repro.trace.store`) that
specs, workers and cache artifacts reference by digest.
"""

from repro.trace.store import TraceStore, default_store, trace_digest
from repro.trace.swf import SwfParseReport, parse_swf, read_swf, write_swf
from repro.trace.synthetic import (
    SyntheticTraceConfig,
    apply_load_factor,
    drop_oversized,
    sdsc_paragon_trace,
    synthetic_trace,
)

__all__ = [
    "read_swf",
    "parse_swf",
    "SwfParseReport",
    "write_swf",
    "TraceStore",
    "default_store",
    "trace_digest",
    "SyntheticTraceConfig",
    "synthetic_trace",
    "sdsc_paragon_trace",
    "apply_load_factor",
    "drop_oversized",
]
