"""Experiment cell specifications and their serializable results.

An :class:`ExperimentSpec` pins down everything one simulation cell needs:
the mesh, the communication pattern, the allocator, the load factor, the
seed, and the workload (either the synthetic-trace parameters or an
explicit base trace).  Specs are frozen, hashable (usable as dict keys and
dedup keys) and round-trip through JSON, which is what makes both the
multiprocessing fan-out and the on-disk cache possible: workers rebuild
the whole cell from the spec alone, and the cache keys artifacts by the
SHA-256 of the spec's canonical JSON form.

Explicit traces come in two interchangeable forms: inline rows
(``trace``) or a content-address into the workload store
(``trace_ref``, see :mod:`repro.trace.store`).  :meth:`ExperimentSpec.intern`
converts inline to ref, and :meth:`ExperimentSpec.cache_key` hashes a ref's
rows in place of its digest -- so both forms of the same cell share one
byte-identical cache key, which is what lets the engine intern traces
without invalidating any pre-existing ``.repro-cache/`` artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields, replace

from repro.mesh.clos import build_topology as _build_topology
from repro.mesh.clos import topology_label
from repro.mesh.topology import Topology, mesh_from_shape
from repro.network.fluid import NetworkParams
from repro.sched.job import Job, JobResult
from repro.sched.registry import apply_priority, validate_priority
from repro.sched.stats import RunSummary
from repro.trace.store import TraceStore, canonical_trace, default_store, trace_digest

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "summary_to_dict",
    "summary_from_dict",
]

#: Serialized base-trace row: (job_id, arrival, size, runtime) with
#: optional trailing (user_id, priority_class) tenancy columns (see
#: repro.trace.store.TraceRow).
TraceRow = tuple

_HEX_DIGITS = set("0123456789abcdef")

#: Job lists :meth:`ExperimentSpec.build_jobs` keeps per process.  Many
#: cells share one workload (a campaign's allocator and scheduler axes
#: never change it), and decoding a packed artifact rebuilds it.
JOBS_MEMO_CAP = 64

_JOBS_MEMO: OrderedDict[tuple, tuple[Job, ...]] = OrderedDict()


def _is_digest(value: str) -> bool:
    return isinstance(value, str) and len(value) == 64 and set(value) <= _HEX_DIGITS


@dataclass(frozen=True)
class ExperimentSpec:
    """One (mesh, pattern, allocator, load, seed, workload) grid cell.

    Attributes
    ----------
    mesh_shape:
        ``(width, height)`` of a 2-D mesh or ``(width, height, depth)`` of
        a 3-D mesh.  Derived (``(n_hosts,)``) when ``topology`` is set.
    torus:
        Opposite faces connected (k-ary n-cube).  False (the paper's plain
        meshes) is omitted from the serialized form so every pre-existing
        2-D spec keeps a byte-identical cache key.
    topology:
        Canonical switched-fabric string (``"fattree:k=8"``,
        ``"leafspine:40x16"``, ``"dragonfly:9x4x2"`` -- see
        :func:`repro.mesh.clos.build_topology`).  ``None`` (every mesh
        spec) is omitted from the serialized form, so mesh cache keys are
        byte-identical to the pre-topology era.  Mesh strings passed here
        normalise into ``mesh_shape`` / ``torus`` instead, so one axis can
        mix meshes and fabrics.
    pattern:
        Registry name of the communication pattern (or the engine's
        ``"mixed(a2a+nbody)"`` sentinel for the hybrid-workload mix).
    allocator:
        Registry name of the allocation strategy.
    load:
        Load factor contracting arrival times (Section 3.2's knob).
    seed:
        Base seed for trace generation and per-job pattern randomness.
    n_jobs / runtime_scale:
        Synthetic-trace parameters (ignored when ``trace`` is given).
    trace:
        Optional explicit base trace as ``(job_id, arrival, size,
        runtime)`` tuples, *before* load contraction -- used for SWF
        traces and the boosted Fig 9/10 workload.
    trace_ref:
        Content address (SHA-256 digest) of an explicit base trace in the
        workload store, the interned alternative to ``trace`` (exactly one
        of the two may be set).  Ref specs pickle in a few hundred bytes
        regardless of trace length, which is what makes ``--scale full``
        fan-out cheap.
    network:
        Non-default fluid-network parameters as sorted ``(name, value)``
        pairs (see :meth:`from_network_params`); ``None`` means the
        default :class:`~repro.network.fluid.NetworkParams`.
    scheduler:
        A discipline from :mod:`repro.sched.registry`: ``"fcfs"`` (the
        paper), ``"easy"`` (backfilling extension), ``"wfq"`` (weighted
        fair over priority classes) or ``"drr"`` (deficit round-robin
        over tenants).
    priority:
        Optional priority policy (``"user:<k>"`` / ``"rr:<k>"``, see
        :func:`repro.sched.registry.apply_priority`) assigning
        ``priority_class`` to the built jobs.  ``None`` (the default,
        omitted from the serialized form so legacy cache keys are
        unchanged) keeps the trace's own classes.
    n_users:
        Synthetic tenancy: assign each generated job a deterministic
        tenant in ``[0, n_users)``.  0 (default, omitted when default)
        leaves synthetic jobs tenant-free; ignored for explicit traces,
        which carry their own user ids.
    """

    mesh_shape: tuple[int, ...]
    pattern: str
    allocator: str
    load: float
    seed: int
    n_jobs: int = 0
    runtime_scale: float = 1.0
    trace: tuple[TraceRow, ...] | None = None
    network: tuple[tuple[str, float | None], ...] | None = None
    scheduler: str = "fcfs"
    torus: bool = False
    trace_ref: str | None = None
    topology: str | None = None
    priority: str | None = None
    n_users: int = 0

    def __post_init__(self) -> None:
        # Normalise list inputs so hashing/equality always work.  Trace
        # rows are also type-normalised to (int, float, int, float) so the
        # inline form, the store's canonical form, and the cache key all
        # agree byte-for-byte.
        object.__setattr__(self, "mesh_shape", tuple(self.mesh_shape))
        if self.topology is not None:
            # Canonicalise the string (so "fattree:8" and "fattree:k=8"
            # share one cache key) and derive the serialisable shape.
            topo = _build_topology(self.topology)
            if getattr(topo, "is_mesh", True):
                # Mesh strings normalise into mesh_shape/torus so mesh
                # cells of a topology axis stay byte-identical to their
                # pre-topology-era specs.
                object.__setattr__(self, "topology", None)
                object.__setattr__(self, "mesh_shape", tuple(topo.shape))
                object.__setattr__(self, "torus", topo.torus)
            else:
                object.__setattr__(self, "topology", topology_label(topo))
                object.__setattr__(self, "mesh_shape", tuple(topo.shape))
                object.__setattr__(self, "torus", False)
        if self.trace is not None:
            object.__setattr__(self, "trace", canonical_trace(self.trace))
        if self.network is not None:
            object.__setattr__(
                self, "network", tuple(tuple(kv) for kv in self.network)
            )
        if self.topology is None and len(self.mesh_shape) not in (2, 3):
            raise ValueError(
                f"mesh_shape must be (w, h) or (w, h, d), got {self.mesh_shape!r}"
            )
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load!r}")
        if self.trace is not None and self.trace_ref is not None:
            raise ValueError("trace and trace_ref are mutually exclusive")
        if self.trace_ref is not None and not _is_digest(self.trace_ref):
            raise ValueError(
                f"trace_ref must be a 64-char SHA-256 hex digest, got {self.trace_ref!r}"
            )
        if self.trace is None and self.trace_ref is None and self.n_jobs < 1:
            raise ValueError("specs without an explicit trace need n_jobs >= 1")
        validate_priority(self.priority)
        if self.n_users < 0:
            raise ValueError(f"n_users must be >= 0, got {self.n_users!r}")

    # -- workload ------------------------------------------------------
    @property
    def has_explicit_trace(self) -> bool:
        """Whether the cell replays an explicit base trace (either form)."""
        return self.trace is not None or self.trace_ref is not None

    def base_trace(self, store: TraceStore | None = None) -> tuple[TraceRow, ...]:
        """The explicit base trace rows, hydrating refs from ``store``.

        ``store`` defaults to the workload store under the default cache
        root; raises :class:`ValueError` for synthetic specs and
        :class:`KeyError` for refs missing from the store.
        """
        if self.trace is not None:
            return self.trace
        if self.trace_ref is None:
            raise ValueError("spec has no explicit trace")
        return (store if store is not None else default_store()).get(self.trace_ref)

    def build_jobs(self, store: TraceStore | None = None) -> list[Job]:
        """Materialise the cell's job list (deterministic in the spec).

        Mirrors the sweep drivers exactly: base trace, then
        :func:`~repro.trace.synthetic.drop_oversized` for the mesh, then
        :func:`~repro.trace.synthetic.apply_load_factor`.  Ref specs
        hydrate their rows from ``store`` (default workload store when
        ``None``).  The jobs are frozen, so the list is memoised per
        process (up to :data:`JOBS_MEMO_CAP` workloads) and each call
        returns a fresh list of the same jobs.
        """
        if self.trace_ref is not None:
            if store is None:
                store = default_store()
            # The digest is the trace's content address: every store
            # holding it holds the same rows.
            source: tuple = ("ref", self.trace_ref)
        elif self.trace is not None:
            source = ("trace", self.trace)
        else:
            source = (
                "synthetic", self.seed, self.n_jobs, self.runtime_scale, self.n_users
            )
        # Keyed on exactly what the build below reads.  A memoised ref
        # workload is served only from a store that holds its trace, so a
        # store without it still raises KeyError.
        key = (source, math.prod(self.mesh_shape), self.load, self.priority)
        jobs = _JOBS_MEMO.get(key)
        if jobs is None or (self.trace_ref is not None and self.trace_ref not in store):
            jobs = tuple(self._build_jobs(store))
            _JOBS_MEMO[key] = jobs
            while len(_JOBS_MEMO) > JOBS_MEMO_CAP:
                _JOBS_MEMO.popitem(last=False)
        _JOBS_MEMO.move_to_end(key)
        return list(jobs)

    def _build_jobs(self, store: TraceStore | None) -> list[Job]:
        from repro.trace.synthetic import (
            apply_load_factor,
            drop_oversized,
            sdsc_paragon_trace,
        )

        if self.has_explicit_trace:
            base = [_job_from_row(row) for row in self.base_trace(store)]
        else:
            base = sdsc_paragon_trace(
                seed=self.seed,
                n_jobs=self.n_jobs,
                runtime_scale=self.runtime_scale,
                n_users=self.n_users,
            )
        n_nodes = math.prod(self.mesh_shape)
        jobs = apply_load_factor(drop_oversized(base, n_nodes), self.load)
        return apply_priority(jobs, self.priority)

    # -- machine construction ------------------------------------------
    def build_machine_topology(self) -> Topology:
        """The machine topology this cell runs on.

        The single deserialisation point for workers and the engine:
        ``topology`` strings build Clos fabrics
        (:func:`repro.mesh.clos.build_topology`), everything else is a
        mesh from ``mesh_shape`` / ``torus``.

        >>> spec = ExperimentSpec(mesh_shape=(8, 8), pattern="ring",
        ...                       allocator="mc", load=1.0, seed=1, n_jobs=10)
        >>> type(spec.build_machine_topology()).__name__
        'Mesh2D'
        >>> clos = ExperimentSpec(mesh_shape=(), pattern="ring",
        ...                       allocator="random", load=1.0, seed=1,
        ...                       n_jobs=10, topology="fattree:8")
        >>> clos.topology, clos.mesh_shape
        ('fattree:k=8', (128,))
        """
        if self.topology is not None:
            return _build_topology(self.topology)
        return mesh_from_shape(self.mesh_shape, torus=self.torus)

    # -- trace interning -----------------------------------------------
    def intern(self, store: TraceStore) -> "ExperimentSpec":
        """Ref form of this spec: inline rows moved into ``store``.

        No-op for synthetic and already-interned specs.  The returned spec
        has the byte-identical cache key of the original (the key hashes
        the trace rows either way).
        """
        if self.trace is None:
            return self
        return replace(self, trace=None, trace_ref=store.put(self.trace))

    def with_trace_digest(self) -> "ExperimentSpec":
        """Digest-normalised form (pure -- no store access).

        Inline rows are replaced by their content address, so the two
        forms of the same cell compare equal; used by the cache to
        validate artifacts against requesting specs.

        >>> from repro.trace.store import trace_digest
        >>> inline = ExperimentSpec(mesh_shape=(8, 8), pattern="ring",
        ...                         allocator="mc", load=1.0, seed=1,
        ...                         trace=((0, 0.0, 4, 10.0),))
        >>> inline.with_trace_digest().trace_ref == trace_digest(inline.trace)
        True
        """
        if self.trace is None:
            return self
        return replace(self, trace=None, trace_ref=trace_digest(self.trace))

    # -- network parameters --------------------------------------------
    def network_params(self) -> NetworkParams:
        """The cell's fluid-network parameters."""
        if self.network is None:
            return NetworkParams()
        return NetworkParams(**dict(self.network))

    @staticmethod
    def from_network_params(params: NetworkParams) -> tuple | None:
        """Spec encoding of ``params``.

        Defaults collapse to ``None`` so specs (and therefore cache keys)
        are unchanged by merely passing the standard parameters; any
        deviation becomes part of the key and keeps artifacts distinct.
        """
        if params == NetworkParams():
            return None
        return tuple(sorted(asdict(params).items()))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (tuples become lists).

        ``torus`` and ``trace_ref`` are serialized only when set: the
        defaults are omitted so 2-D inline specs -- and therefore their
        cache keys and every pre-refactor ``.repro-cache/`` artifact --
        are unchanged by the N-D and trace-store refactors.
        """
        out = {
            "mesh_shape": list(self.mesh_shape),
            "pattern": self.pattern,
            "allocator": self.allocator,
            "load": self.load,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "runtime_scale": self.runtime_scale,
            "trace": None if self.trace is None else [list(r) for r in self.trace],
            "network": None if self.network is None else [list(kv) for kv in self.network],
            "scheduler": self.scheduler,
        }
        if self.torus:
            out["torus"] = True
        if self.trace_ref is not None:
            out["trace_ref"] = self.trace_ref
        if self.topology is not None:
            out["topology"] = self.topology
        if self.priority is not None:
            out["priority"] = self.priority
        if self.n_users:
            out["n_users"] = self.n_users
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mesh_shape=tuple(data["mesh_shape"]),
            pattern=data["pattern"],
            allocator=data["allocator"],
            load=data["load"],
            seed=data["seed"],
            n_jobs=data.get("n_jobs", 0),
            runtime_scale=data.get("runtime_scale", 1.0),
            trace=None
            if data.get("trace") is None
            else tuple(tuple(r) for r in data["trace"]),
            network=None
            if data.get("network") is None
            else tuple(tuple(kv) for kv in data["network"]),
            scheduler=data.get("scheduler", "fcfs"),
            torus=data.get("torus", False),
            trace_ref=data.get("trace_ref"),
            topology=data.get("topology"),
            priority=data.get("priority"),
            n_users=data.get("n_users", 0),
        )

    def cache_key(self, store: TraceStore | None = None) -> str:
        """SHA-256 hex digest of the canonical *inline* JSON form.

        Ref specs hash the store's canonical rows (``store`` defaults to
        the workload store) in place of their digest, so interning is
        cache-key neutral: both forms of a cell address the same artifact,
        and every pre-refactor inline key is byte-identical.

        >>> spec = ExperimentSpec(mesh_shape=(8, 8), pattern="ring",
        ...                       allocator="mc", load=1.0, seed=1, n_jobs=10)
        >>> spec.cache_key()[:12]
        'f86d22745a54'
        >>> ExperimentSpec.from_dict(spec.to_dict()) == spec
        True
        """
        data = self.to_dict()
        if data.pop("trace_ref", None) is not None:
            data["trace"] = [list(row) for row in self.base_trace(store)]
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# RunSummary / JobResult serialization helpers
# ----------------------------------------------------------------------

def summary_to_dict(summary: RunSummary) -> dict:
    """Field dict of a :class:`~repro.sched.stats.RunSummary`."""
    out = {f.name: getattr(summary, f.name) for f in fields(RunSummary)}
    out["mesh_shape"] = list(out["mesh_shape"])
    return out


def summary_from_dict(data: dict) -> RunSummary:
    """Inverse of :func:`summary_to_dict`."""
    data = dict(data)
    data["mesh_shape"] = tuple(data["mesh_shape"])
    return RunSummary(**data)


def _job_from_row(row) -> Job:
    """A Job from a 4-, 5- or 6-column canonical trace row."""
    return Job(
        int(row[0]),
        float(row[1]),
        int(row[2]),
        float(row[3]),
        user_id=int(row[4]) if len(row) > 4 else -1,
        priority_class=int(row[5]) if len(row) > 5 else 0,
    )


_JOB_FIELDS = [f.name for f in fields(JobResult)]

#: Trailing JobResult fields dropped from the serialized row while at
#: their defaults (newest last).  Keeps full-row artifacts written before
#: a field existed byte-identical -- the same sentinel idea as ``held``.
_JOB_TAIL_DEFAULTS = (("priority_class", 0), ("user_id", -1))


def _job_to_list(job: JobResult) -> list:
    values = [getattr(job, name) for name in _JOB_FIELDS]
    for name, default in _JOB_TAIL_DEFAULTS:
        if values[-1] == default and _JOB_FIELDS[len(values) - 1] == name:
            values.pop()
        else:
            break
    return values


def _job_from_list(values: list) -> JobResult:
    return JobResult(**dict(zip(_JOB_FIELDS, values)))


@dataclass
class CellResult:
    """Outcome of one executed (or cache-loaded) spec.

    ``summary`` carries the aggregate numbers the figures plot; ``jobs``
    the per-job records (needed by the Fig 9/10 scatter and the
    utilization analysis).  ``cached`` marks cache hits; ``elapsed`` is
    the compute wall time in seconds (0.0 for hits).
    """

    spec: ExperimentSpec
    summary: RunSummary
    jobs: list[JobResult] = field(default_factory=list)
    cached: bool = False
    elapsed: float = 0.0

    def to_simulation_result(self):
        """Rebuild a :class:`~repro.sched.simulator.SimulationResult` view
        (gives access to ``mean_utilization`` etc. for cached cells)."""
        from repro.sched.simulator import SimulationResult

        return SimulationResult(
            allocator=self.summary.allocator,
            pattern=self.summary.pattern,
            mesh_shape=self.summary.mesh_shape,
            load_factor=self.summary.load_factor,
            jobs=list(self.jobs),
            makespan=self.summary.makespan,
            scheduler=self.spec.scheduler,
        )

    def to_dict(self) -> dict:
        """JSON-ready artifact (what the cache stores)."""
        return {
            "spec": self.spec.to_dict(),
            "summary": summary_to_dict(self.summary),
            "jobs": [_job_to_list(j) for j in self.jobs],
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict, cached: bool = False) -> "CellResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            summary=summary_from_dict(data["summary"]),
            jobs=[_job_from_list(v) for v in data["jobs"]],
            cached=cached,
            elapsed=data.get("elapsed", 0.0),
        )
