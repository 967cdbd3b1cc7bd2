"""Mesh machine substrate: topology, routing, and occupancy state.

This package models the space-shared mesh-connected machines of the paper
(Cplant-like 2-D meshes such as 16x22 and 16x16).  It provides:

* :class:`~repro.mesh.topology.Mesh` -- 2-D and 3-D meshes and tori: node
  coordinate systems, distance metrics, and dimension-ordered (x-y)
  routing (:meth:`~repro.mesh.topology.Mesh.route`), the deadlock-free
  routing used by ProcSimity and by the paper's contiguity discussion
  ("messages use x-y routing rather than arbitrary paths"),
* :class:`~repro.mesh.machine.Machine` -- the processor-occupancy state
  shared by the scheduler and the allocators,
* :mod:`~repro.mesh.clos` -- the switched (fat-tree / leaf-spine /
  dragonfly) implementations of the :class:`~repro.mesh.topology.Topology`
  protocol, each declaring its up/down route once as a masked hop
  template, built from strings by :func:`~repro.mesh.clos.build_topology`.
"""

from repro.mesh.clos import (
    ClosTopology,
    Dragonfly,
    FatTree,
    LeafSpine,
    build_topology,
    topology_label,
)
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh, Topology

__all__ = [
    "Topology",
    "Mesh",
    "ClosTopology",
    "FatTree",
    "LeafSpine",
    "Dragonfly",
    "build_topology",
    "topology_label",
    "Machine",
]
