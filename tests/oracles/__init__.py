"""Independent references the test suites and benchmarks check against.

* :mod:`oracles.loop_engine` -- the frozen per-event loop engine the
  vectorised simulator is pinned bit-identical to;
* :mod:`oracles.disciplines` -- the loop engine's own copies of the
  ``wfq`` and ``drr`` queueing disciplines;
* :mod:`oracles.maxmin` -- the max-min fairness optimality certificate
  and the dense progressive filling the sparse waterfill is pinned to;
* :mod:`oracles.mc` -- the ``F x F`` shell-matrix form of MC / MC1x1
  selection that the summed-area-table allocator is pinned to;
* :mod:`oracles.schedule` -- scheduler invariants over ``JobResult`` lists.

The certificate, the dense waterfill and the schedule checker share no
code with what they check, and the MC form shares only ``infer_shape``;
the loop engine shares the allocators and routing with the simulator on
purpose, runs the dense waterfill and its own scheduling (inline FCFS
and EASY, :mod:`oracles.disciplines` for ``wfq``/``drr``), and pins
everything else.
None imports ``hypothesis``: the benchmarks CI job does not install it.
``tests/conftest.py`` and ``benchmarks/conftest.py`` both put ``tests/``
on ``sys.path``, so ``import oracles`` works from either tree.
"""
