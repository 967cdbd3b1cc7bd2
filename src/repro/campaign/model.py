"""Campaign files: declarative descriptions of experiment sweeps.

A **campaign file** (TOML or JSON) declares the *matrix* of scenarios the
paper's evaluation is built from -- machines x communication patterns x
allocation strategies x loads (x seeds x workloads) -- as data instead of
Python.  The :class:`Campaign` model in this module is the validated
in-memory form; :mod:`repro.campaign.expand` turns it into the
cross-product of :class:`~repro.runner.spec.ExperimentSpec` cells, and
:mod:`repro.campaign.runner` runs those through the parallel engine with
a resumable manifest.

A minimal file::

    [campaign]
    name = "demo"
    description = "two allocators on the paper's square mesh"

    [defaults]
    seed = 1
    n_jobs = 150
    runtime_scale = 0.01

    [axes]
    mesh = ["16x16"]
    pattern = ["all-to-all"]
    load = [1.0, 0.6, 0.2]
    allocator = ["hilbert+bf", "mc"]

Axis declaration order is significant: cells are generated by iterating
the axes in file order, outermost first, which is how the figure drivers'
canonical cell order (mesh-major, then pattern, then load, then
allocator) is expressed as data.

Beyond the four required axes (``mesh``, ``pattern``, ``load``,
``allocator``) a campaign may declare ``seed``, ``scheduler`` and
``workload`` axes.  A ``topology`` axis may replace ``mesh`` when the
machine sweep mixes meshes with switched fabrics -- values are topology
strings (``"16x22"``, ``"fattree:k=8"``, ``"leafspine:40x16"``,
``"dragonfly:9x4x2"``); declaring both axes is an error, since they
describe the same machine coordinate.  Campaigns may also declare ``[[include]]``/``[[exclude]]`` filters over axis
values, and ``[[override]]`` blocks that patch per-cell settings (e.g. a
longer trace on a bigger machine).  See the bundled files under
``src/repro/campaign/data/`` for worked examples and
``docs/campaign-format.md`` for the complete key-by-key reference (its
snippets are executed in CI, so it cannot drift from this parser).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.mesh.topology import Mesh, parse_mesh_string
from repro.runner.engine import MIXED_A2A_NBODY
from repro.sched.registry import scheduler_names, validate_priority, validate_scheduler

__all__ = [
    "Campaign",
    "MeshAxis",
    "TraceSource",
    "load_campaign",
    "loads_campaign",
    "bundled_campaign_path",
    "bundled_campaign_names",
    "parse_mesh",
    "parse_topology",
    "CampaignError",
]

#: Directory holding the bundled campaign files shipped with the package.
DATA_DIR = Path(__file__).parent / "data"

#: Axes every campaign must declare (each non-empty).
REQUIRED_AXES = ("mesh", "pattern", "load", "allocator")

#: All recognised axis names, in no particular order.  ``topology``
#: substitutes for the required ``mesh`` axis (exactly one of the two).
KNOWN_AXES = REQUIRED_AXES + ("topology", "seed", "scheduler", "workload", "priority")

#: Settings keys the ``[defaults]`` table and override ``set`` may carry.
KNOWN_SETTINGS = (
    "seed",
    "n_jobs",
    "runtime_scale",
    "scheduler",
    "network",
    "priority",
    "n_users",
)

#: Bundled SWF fixtures addressable as ``"bundled:<name>"`` trace sources.
BUNDLED_SWF = ("sdsc-mini", "sdsc-mini-users")


class CampaignError(ValueError):
    """A campaign file is malformed or semantically invalid."""


@dataclass(frozen=True)
class MeshAxis:
    """One value of the machine axis: a shape plus torus flag, or -- for
    values of the ``topology`` axis naming a switched fabric -- the
    canonical topology string with ``shape`` holding the host count.

    The compact string form is ``"16x22"`` for meshes and ``"8x8x8t"``
    for tori (trailing ``t`` = opposite faces connected), matching how
    the cache CLI renders machine coordinates.  Switched fabrics label
    as their canonical topology string (``"fattree:k=8"``).
    """

    shape: tuple[int, ...]
    torus: bool = False
    #: Canonical Clos label when this value names a switched fabric
    #: (``"fattree:k=8"``); ``None`` for plain meshes/tori.
    topology: str | None = None

    @property
    def label(self) -> str:
        if self.topology is not None:
            return self.topology
        return "x".join(str(n) for n in self.shape) + ("t" if self.torus else "")

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)


def parse_mesh(value) -> MeshAxis:
    """Parse a mesh axis value: ``"16x22"``, ``"8x8x8t"``, or a table
    ``{shape = [w, h(, d)], torus = bool}``.

    >>> parse_mesh("16x22").shape
    (16, 22)
    >>> parse_mesh("8x8x8t").torus
    True
    >>> parse_mesh({"shape": [16, 8, 4], "torus": True}).label
    '16x8x4t'
    """
    if isinstance(value, MeshAxis):
        return value
    if isinstance(value, str):
        try:
            mesh = parse_mesh_string(value)
        except ValueError:
            raise CampaignError(
                f"bad mesh {value!r} in axis 'mesh': expected WxH or WxHxD "
                "(optionally suffixed 't' for a torus), e.g. '16x22' or '8x8x8t'"
            ) from None
        return MeshAxis(shape=mesh.shape, torus=mesh.torus)
    if not isinstance(value, dict):
        raise CampaignError(
            f"bad mesh {value!r} in axis 'mesh': expected a string or a table"
        )
    unknown = set(value) - {"shape", "torus"}
    if unknown:
        raise CampaignError(
            f"bad mesh {value!r} in axis 'mesh': unknown keys {sorted(unknown)}"
        )
    torus = value.get("torus", False)
    if not isinstance(torus, bool):
        raise CampaignError(
            f"bad mesh {value!r} in axis 'mesh': 'torus' must be true or false, "
            f"got {torus!r}"
        )
    shape = value.get("shape")
    if not isinstance(shape, (list, tuple)):
        raise CampaignError(
            f"bad mesh {value!r} in axis 'mesh': 'shape' must be a list of ints"
        )
    try:
        mesh = Mesh(*shape, torus=torus)
    except ValueError as exc:
        raise CampaignError(f"bad mesh {value!r} in axis 'mesh': {exc}") from None
    return MeshAxis(shape=mesh.shape, torus=torus)


def parse_topology(value) -> MeshAxis:
    """Parse a ``topology`` axis value into a :class:`MeshAxis`.

    Accepts everything :func:`repro.mesh.clos.build_topology` does: mesh
    strings (``"16x22"``, ``"8x8x8t"``) become ordinary mesh values, and
    Clos strings (``"fattree:k=8"``, ``"leafspine:40x16"``,
    ``"dragonfly:9x4x2"``) become values carrying the canonical topology
    label with ``shape`` set to the flat host count.

    >>> parse_topology("16x22").label
    '16x22'
    >>> parse_topology("FatTree:8").label
    'fattree:k=8'
    >>> parse_topology("fattree:k=8").n_nodes
    128
    """
    if isinstance(value, MeshAxis):
        return value
    if not isinstance(value, str):
        raise CampaignError(
            f"bad topology {value!r} in axis 'topology': expected a string "
            "like '16x22', 'fattree:k=8', 'leafspine:40x16' or "
            "'dragonfly:9x4x2'"
        )
    from repro.mesh.clos import build_topology, topology_label

    try:
        topo = build_topology(value)
    except ValueError as exc:
        raise CampaignError(
            f"bad topology {value!r} in axis 'topology': {exc}"
        ) from None
    if getattr(topo, "is_mesh", True):
        return MeshAxis(shape=tuple(topo.shape), torus=topo.torus)
    return MeshAxis(
        shape=(topo.n_nodes,), torus=False, topology=topology_label(topo)
    )


@dataclass(frozen=True)
class TraceSource:
    """One value of the ``workload`` axis.

    Three kinds, mirroring the three workload forms the engine accepts:

    * ``"synthetic"`` -- the moment-matched SDSC-Paragon synthetic trace;
      length and time scale come from the cell's ``n_jobs`` /
      ``runtime_scale`` settings,
    * ``{kind = "swf", path = ...}`` -- a Standard Workload Format log,
      run through the archive preparation pipeline
      (:func:`repro.trace.archive.prepare_trace`); ``path`` is either
      ``"bundled:<name>"`` (checked-in fixture) or a filesystem path
      resolved relative to the campaign file,
    * ``{kind = "ref", digest = ...}`` -- a trace already interned in the
      content-addressed workload store, referenced by SHA-256 digest.
    """

    kind: str
    path: str | None = None
    digest: str | None = None
    n_jobs: int | None = None
    time_scale: float = 1.0
    max_size: int | None = None
    oversized: str = "drop"
    target_load: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "synthetic":
            return "synthetic"
        if self.kind == "ref":
            return f"ref:{(self.digest or '')[:12]}"
        return f"swf:{self.path}"


_SOURCE_KEYS = {
    "kind", "path", "digest", "n_jobs", "time_scale",
    "max_size", "oversized", "target_load",
}


def parse_trace_source(value) -> TraceSource:
    """Parse a workload axis value (string shorthand or table form)."""
    if isinstance(value, TraceSource):
        return value
    if isinstance(value, str):
        if value.strip().lower() == "synthetic":
            return TraceSource(kind="synthetic")
        raise CampaignError(
            f"bad workload {value!r} in axis 'workload': the only string "
            "shorthand is 'synthetic'; use a table for swf/ref sources"
        )
    if not isinstance(value, dict):
        raise CampaignError(
            f"bad workload {value!r} in axis 'workload': expected 'synthetic' or a table"
        )
    unknown = set(value) - _SOURCE_KEYS
    if unknown:
        raise CampaignError(
            f"bad workload {value!r} in axis 'workload': unknown keys {sorted(unknown)}"
        )
    kind = value.get("kind")
    if kind not in ("synthetic", "swf", "ref"):
        raise CampaignError(
            f"bad workload {value!r} in axis 'workload': kind must be "
            "'synthetic', 'swf' or 'ref'"
        )
    source = TraceSource(
        kind=kind,
        path=value.get("path"),
        digest=value.get("digest"),
        n_jobs=value.get("n_jobs"),
        time_scale=float(value.get("time_scale", 1.0)),
        max_size=value.get("max_size"),
        oversized=value.get("oversized", "drop"),
        target_load=value.get("target_load"),
    )
    if kind == "swf" and not source.path:
        raise CampaignError(f"bad workload {value!r}: swf sources need a 'path'")
    if kind == "ref":
        digest = source.digest or ""
        if len(digest) != 64 or set(digest) - set("0123456789abcdef"):
            raise CampaignError(
                f"bad workload {value!r}: ref sources need a 64-char SHA-256 "
                "hex 'digest' (intern the trace first, e.g. via "
                "repro.trace.archive.ingest_swf)"
            )
    if source.oversized not in ("drop", "clamp"):
        raise CampaignError(
            f"bad workload {value!r}: oversized must be 'drop' or 'clamp'"
        )
    return source


@dataclass(frozen=True)
class Override:
    """A conditional settings patch: ``set`` applies to cells matching ``when``."""

    when: dict
    set: dict


@dataclass
class Campaign:
    """Validated in-memory form of a campaign file.

    ``axes`` maps axis name to its value list *in declaration order*
    (mesh values normalised to :class:`MeshAxis`, workload values to
    :class:`TraceSource`); ``defaults`` holds cell-level settings
    (``seed``, ``n_jobs``, ``runtime_scale``, ``scheduler``,
    ``network``); ``include``/``exclude`` filter the cross-product and
    ``overrides`` patch settings per matching cell.  ``base_dir`` is the
    directory relative swf paths resolve against (the campaign file's
    directory when loaded from disk).
    """

    name: str
    description: str = ""
    axes: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)
    include: list = field(default_factory=list)
    exclude: list = field(default_factory=list)
    overrides: list = field(default_factory=list)
    base_dir: Path | None = None

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`CampaignError` on structural problems.

        Name-level validation (axis presence, empty axes, unknown
        pattern/allocator/scheduler names, malformed filters) happens
        here so a bad file fails at load time; *combination* checks that
        depend on the whole cell (e.g. a 2-D-only allocator paired with a
        3-D mesh) happen during expansion, after filters apply.
        """
        from repro.core.registry import allocator_names
        from repro.patterns.base import pattern_names

        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign needs a non-empty string name")
        for axis in self.axes:
            if axis not in KNOWN_AXES:
                raise CampaignError(
                    f"unknown axis {axis!r}; known axes: {sorted(KNOWN_AXES)}"
                )
        # Normalise shorthand axis values in place so programmatically
        # built campaigns behave exactly like loaded ones (expand() and
        # scaled() rely on MeshAxis / TraceSource instances).
        if isinstance(self.axes.get("mesh"), (list, tuple)):
            self.axes["mesh"] = [parse_mesh(v) for v in self.axes["mesh"]]
        if isinstance(self.axes.get("topology"), (list, tuple)):
            self.axes["topology"] = [
                parse_topology(v) for v in self.axes["topology"]
            ]
        if isinstance(self.axes.get("workload"), (list, tuple)):
            self.axes["workload"] = [
                parse_trace_source(v) for v in self.axes["workload"]
            ]
        if "mesh" in self.axes and "topology" in self.axes:
            raise CampaignError(
                "campaign declares both 'mesh' and 'topology' axes -- they "
                "describe the same machine coordinate; fold the mesh values "
                "into the topology axis (mesh strings are valid topology "
                "values)"
            )
        for axis in REQUIRED_AXES:
            if axis == "mesh" and "topology" in self.axes:
                continue  # topology substitutes for the machine axis
            if axis not in self.axes:
                raise CampaignError(f"campaign must declare the {axis!r} axis")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise CampaignError(
                    f"axis {axis!r} must be a non-empty list of values"
                )
        known_patterns = set(pattern_names()) | {MIXED_A2A_NBODY}
        for value in self.axes["pattern"]:
            if value not in known_patterns:
                raise CampaignError(
                    f"unknown pattern {value!r} in axis 'pattern'; "
                    f"known: {sorted(known_patterns)}"
                )
        known_allocators = set(allocator_names())
        for value in self.axes["allocator"]:
            if value not in known_allocators:
                raise CampaignError(
                    f"unknown allocator {value!r} in axis 'allocator'; "
                    f"known: {sorted(known_allocators)}"
                )
        for value in self.axes["load"]:
            if not isinstance(value, (int, float)) or not value > 0:  # NaN too
                raise CampaignError(
                    f"bad load {value!r} in axis 'load': loads must be positive numbers"
                )
        for value in self.axes.get("seed", []):
            if not isinstance(value, int):
                raise CampaignError(
                    f"bad seed {value!r} in axis 'seed': seeds must be integers"
                )
        # Distinct workload sources must have distinct labels: the label
        # is what filters match and reports group by, so two differently
        # prepared sources sharing one would silently merge.
        seen_labels: dict[str, TraceSource] = {}
        for source in self.axes.get("workload", []):
            source = parse_trace_source(source)
            prior = seen_labels.setdefault(source.label, source)
            if prior != source:
                raise CampaignError(
                    f"ambiguous workload axis: two different sources share the "
                    f"label {source.label!r} (e.g. same path, different "
                    "n_jobs/time_scale) -- give them distinguishable paths, or "
                    "prepare them into the store and reference them by digest"
                )
        for value in self.axes.get("scheduler", []):
            # Derived from the scheduler registry, so a new discipline is
            # listed here automatically the moment it is registered.
            try:
                validate_scheduler(value)
            except ValueError:
                raise CampaignError(
                    f"unknown scheduler {value!r} in axis 'scheduler'; "
                    f"known: {sorted(scheduler_names())}"
                ) from None
        for value in self.axes.get("priority", []):
            try:
                validate_priority(value)
            except ValueError as exc:
                raise CampaignError(
                    f"bad value {value!r} in axis 'priority': {exc}"
                ) from None
        for key in self.defaults:
            if key not in KNOWN_SETTINGS:
                raise CampaignError(
                    f"unknown [defaults] key {key!r}; known: {sorted(KNOWN_SETTINGS)}"
                )
        if self.defaults.get("priority") is not None:
            try:
                validate_priority(self.defaults["priority"])
            except ValueError as exc:
                raise CampaignError(f"bad [defaults] priority: {exc}") from None
        for section, filters in (("include", self.include), ("exclude", self.exclude)):
            for filt in filters:
                self._check_filter(filt, section)
        for ov in self.overrides:
            self._check_filter(ov.when, "override.when")
            for key in ov.set:
                if key not in KNOWN_SETTINGS:
                    raise CampaignError(
                        f"unknown override.set key {key!r}; "
                        f"known: {sorted(KNOWN_SETTINGS)}"
                    )
                if key in self.axes:
                    raise CampaignError(
                        f"override.set key {key!r} collides with the declared "
                        f"{key!r} axis (axis values always win) -- drop the "
                        "axis or express the variation as axis values"
                    )
                if key == "priority" and ov.set[key] is not None:
                    try:
                        validate_priority(ov.set[key])
                    except ValueError as exc:
                        raise CampaignError(
                            f"bad override.set priority: {exc}"
                        ) from None

    def _check_filter(self, filt, section: str) -> None:
        if not isinstance(filt, dict) or not filt:
            raise CampaignError(f"[[{section}]] entries must be non-empty tables")
        for key in filt:
            if key not in KNOWN_AXES:
                raise CampaignError(
                    f"[[{section}]] key {key!r} is not an axis; "
                    f"known axes: {sorted(KNOWN_AXES)}"
                )

    # -- scale adaptation ----------------------------------------------
    def scaled(self, scale, seed: int | None = None) -> "Campaign":
        """This campaign adapted to an experiment :class:`Scale`.

        The figure-driver shims use this to honour ``--scale``/``--seed``:
        a ``load`` axis of more than one value becomes ``scale.loads`` (a
        single-load figure keeps its one load), the synthetic-trace
        length/time settings become the scale's, and SWF sources truncate
        and time-scale the log the same way.  Bundled campaign files are
        written at ``small`` scale, for which this is the identity.
        """
        axes = dict(self.axes)
        if len(axes["load"]) > 1:
            axes["load"] = [float(v) for v in scale.loads]
        if "workload" in axes:
            sources = [parse_trace_source(v) for v in axes["workload"]]
            axes["workload"] = [
                replace(src, n_jobs=scale.n_jobs, time_scale=scale.runtime_scale)
                if src.kind == "swf"
                else src
                for src in sources
            ]
        defaults = dict(self.defaults)
        defaults["seed"] = seed if seed is not None else scale.seed
        defaults["n_jobs"] = scale.n_jobs
        defaults["runtime_scale"] = scale.runtime_scale
        if "seed" in axes and seed is not None:
            axes["seed"] = [seed]
        return replace(self, axes=axes, defaults=defaults)


def _campaign_from_data(data: dict, base_dir: Path | None) -> Campaign:
    if not isinstance(data, dict):
        raise CampaignError("campaign file must be a table/object at top level")
    header = data.get("campaign", {})
    if not isinstance(header, dict):
        raise CampaignError("[campaign] must be a table")
    unknown_header = set(header) - {"name", "description"}
    if unknown_header:
        raise CampaignError(
            f"unknown [campaign] keys {sorted(unknown_header)}; "
            "known: ['description', 'name']"
        )
    unknown = set(data) - {"campaign", "defaults", "axes", "include", "exclude", "override"}
    if unknown:
        raise CampaignError(f"unknown top-level sections {sorted(unknown)}")
    axes_in = data.get("axes", {})
    if not isinstance(axes_in, dict):
        raise CampaignError("[axes] must be a table of value lists")
    axes: dict = {}
    for axis, values in axes_in.items():
        if not isinstance(values, (list, tuple)):
            raise CampaignError(f"axis {axis!r} must be a list of values")
        if axis == "mesh":
            axes[axis] = [parse_mesh(v) for v in values]
        elif axis == "topology":
            axes[axis] = [parse_topology(v) for v in values]
        elif axis == "workload":
            axes[axis] = [parse_trace_source(v) for v in values]
        else:
            axes[axis] = list(values)
    overrides = []
    for entry in data.get("override", []):
        if not isinstance(entry, dict) or set(entry) - {"when", "set"}:
            raise CampaignError(
                "[[override]] entries must be tables with 'when' and 'set'"
            )
        overrides.append(Override(when=entry.get("when", {}), set=entry.get("set", {})))
    campaign = Campaign(
        name=header.get("name", ""),
        description=header.get("description", ""),
        axes=axes,
        defaults=dict(data.get("defaults", {})),
        include=list(data.get("include", [])),
        exclude=list(data.get("exclude", [])),
        overrides=overrides,
        base_dir=base_dir,
    )
    campaign.validate()
    return campaign


def loads_campaign(text: str, fmt: str = "toml", base_dir: str | Path | None = None) -> Campaign:
    r"""Parse campaign file *content* (``fmt`` is ``"toml"`` or ``"json"``).

    >>> campaign = loads_campaign(
    ...     "[campaign]\nname = 'doc'\n"
    ...     "[defaults]\nseed = 1\nn_jobs = 10\n"
    ...     "[axes]\nmesh = ['8x8']\npattern = ['ring']\n"
    ...     "load = [1.0, 0.5]\nallocator = ['mc']\n")
    >>> campaign.name
    'doc'
    >>> from repro.campaign.expand import expand
    >>> len(expand(campaign).cells)
    2
    """
    if fmt == "toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignError(f"campaign TOML does not parse: {exc}") from None
    elif fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign JSON does not parse: {exc}") from None
    else:
        raise CampaignError(f"unknown campaign format {fmt!r} (toml or json)")
    return _campaign_from_data(data, Path(base_dir) if base_dir is not None else None)


def load_campaign(path: str | Path) -> Campaign:
    """Load and validate a campaign file (``.toml`` or ``.json``)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"campaign file not found: {path} -- bundled campaigns: "
            f"{', '.join(bundled_campaign_names())}"
        )
    fmt = "json" if path.suffix.lower() == ".json" else "toml"
    return loads_campaign(path.read_text(), fmt=fmt, base_dir=path.parent)


def bundled_campaign_names() -> list[str]:
    """Names of the campaign files shipped under ``repro/campaign/data/``."""
    return sorted(p.stem for p in DATA_DIR.glob("*.toml")) + sorted(
        p.stem for p in DATA_DIR.glob("*.json")
    )


def bundled_campaign_path(name: str) -> Path:
    """Path of a bundled campaign by name (``"fig07"`` -> ``data/fig07.toml``)."""
    for suffix in (".toml", ".json"):
        candidate = DATA_DIR / f"{name}{suffix}"
        if candidate.is_file():
            return candidate
    raise KeyError(
        f"no bundled campaign {name!r}; bundled: {bundled_campaign_names()}"
    )
