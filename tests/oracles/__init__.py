"""Independent references the test suites and benchmarks check against.

* :mod:`oracles.loop_engine` -- the frozen per-event loop engine the
  vectorised simulator is pinned bit-identical to;
* :mod:`oracles.disciplines` -- the loop engine's own copies of the
  ``wfq`` and ``drr`` queueing disciplines;
* :mod:`oracles.maxmin` -- the max-min fairness optimality certificate
  and the dense progressive filling the sparse waterfill is pinned to;
* :mod:`oracles.mc` -- the ``F x F`` shell-matrix form of MC / MC1x1
  selection that the summed-area-table allocator is pinned to;
* :mod:`oracles.schedule` -- scheduler invariants over ``JobResult`` lists;
* :mod:`oracles.routing` -- the scalar per-pair routes (dimension-ordered
  on meshes and tori, up/down on the Clos fabrics) and the fabrics'
  closed-form distances that ``Mesh.route``, ``links_on_route`` and the
  Clos hop templates are pinned to.

The certificate, the dense waterfill and the schedule checker share no
code with what they check, the routing reference reads only the
topologies' geometry (coordinates, vertex offsets, gateways) and link-id
numbering, and the MC form shares only ``infer_shape``;
the loop engine shares the allocators and routing with the simulator on
purpose, runs the dense waterfill and its own scheduling (inline FCFS
and EASY, :mod:`oracles.disciplines` for ``wfq``/``drr``), and pins
everything else.
None imports ``hypothesis``: the benchmarks CI job does not install it.
``tests/conftest.py`` and ``benchmarks/conftest.py`` both put ``tests/``
on ``sys.path``, so ``import oracles`` works from either tree.
"""
