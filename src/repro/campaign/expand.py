"""Campaign expansion: cross-product -> validated experiment specs.

:func:`expand` turns a :class:`~repro.campaign.model.Campaign` into the
ordered list of unique :class:`~repro.campaign.expand.CampaignCell`\\ s:
the cross-product of the declared axes (outermost axis first, in file
order), filtered by ``include``/``exclude``, patched by ``override``
blocks, deduplicated by spec digest, and validated cell-by-cell (a
2-D-only allocator on a 3-D mesh, or a mesh-only allocator on a switched
fabric, is rejected here, after filters had the chance to exclude it).

Workload sources resolve once per distinct source: SWF logs are parsed
and prepared through the archive pipeline and interned into the workload
store :func:`expand` is given, so every cell references the trace by
digest; expanding an SWF source without a store is an error.  The
per-source accounting (:class:`SourceInfo`) rides along in the
:class:`Expansion` so drivers and reports can show exactly what was
ingested.

Every cell carries a **cell digest**
(:func:`repro.runner.spec.cell_digest`, re-exported here): the SHA-256
of the canonical JSON of its spec.  It is pure -- no store access, since
an explicit trace enters it as its content address -- and is both the
key the campaign manifest records completion by and the name of the
cell's cache artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.model import (
    BUNDLED_SWF,
    Campaign,
    CampaignError,
    MeshAxis,
    TraceSource,
)
from repro.runner.spec import ExperimentSpec, cell_digest
from repro.trace.store import TraceStore

__all__ = [
    "CampaignCell",
    "Expansion",
    "SourceInfo",
    "expand",
    "cell_digest",
]


@dataclass(frozen=True)
class CampaignCell:
    """One expanded cell: its axis coordinates, spec, and content digest."""

    index: int
    coords: dict
    spec: ExperimentSpec
    digest: str

    def __hash__(self) -> int:  # coords is a dict; identity is the digest
        return hash(self.digest)


@dataclass
class SourceInfo:
    """Resolution record for one workload source."""

    source: TraceSource
    digest: str
    n_jobs: int
    parse: object | None = None  # SwfParseReport for swf sources
    normalize: object | None = None  # NormalizeReport for swf sources

    def summary(self) -> str:
        parts = [f"{self.source.label}: {self.n_jobs} jobs, digest {self.digest[:12]}"]
        if self.parse is not None:
            parts.append(f"parse [{self.parse.summary()}]")
        if self.normalize is not None:
            parts.append(f"prepare [{self.normalize.summary()}]")
        return "; ".join(parts)


@dataclass
class Expansion:
    """The expanded campaign: unique cells plus expansion accounting."""

    campaign: Campaign
    cells: list[CampaignCell] = field(default_factory=list)
    n_raw: int = 0
    n_excluded: int = 0
    n_deduped: int = 0
    sources: dict = field(default_factory=dict)  # source label -> SourceInfo
    digest: str = ""

    @property
    def axis_names(self) -> list[str]:
        return list(self.campaign.axes)

    def select(self, **coords) -> list[CampaignCell]:
        """Cells whose coordinates match every given ``axis=value`` pair."""
        out = []
        for cell in self.cells:
            if all(cell.coords.get(axis) == value for axis, value in coords.items()):
                out.append(cell)
        return out

    def summary(self) -> str:
        parts = [f"{len(self.cells)} cells"]
        if self.n_excluded:
            parts.append(f"{self.n_excluded} excluded")
        if self.n_deduped:
            parts.append(f"{self.n_deduped} duplicates deduped")
        return (
            f"campaign {self.campaign.name!r}: " + ", ".join(parts)
            + f" over axes {'x'.join(str(len(v)) for v in self.campaign.axes.values())}"
            f" ({' / '.join(self.campaign.axes)})"
        )


def _coord_label(value):
    """The filterable/serializable form of an axis value."""
    if isinstance(value, (MeshAxis, TraceSource)):
        return value.label
    return value


def _matches(filt: dict, coords: dict) -> bool:
    """Whether a filter table matches a cell's coordinates.

    Every key must match; a list value means "any of".  Filter values are
    compared against the coordinate labels (``"8x8x8t"`` for meshes,
    ``"synthetic"``/``"swf:..."``/``"ref:..."`` for workloads).
    """
    for key, want in filt.items():
        have = coords.get(key)
        options = want if isinstance(want, (list, tuple)) else [want]
        if not any(have == _coord_label(opt) or have == opt for opt in options):
            return False
    return True


def _resolve_swf_path(source: TraceSource, base_dir: Path | None) -> Path:
    path_text = source.path or ""
    if path_text.startswith("bundled:"):
        name = path_text.split(":", 1)[1]
        if name in ("sdsc-mini", "sdsc_mini"):
            from repro.trace.archive import bundled_mini_swf

            return bundled_mini_swf()
        if name in ("sdsc-mini-users", "sdsc_mini_users"):
            from repro.trace.archive import bundled_mini_swf_users

            return bundled_mini_swf_users()
        raise CampaignError(
            f"unknown bundled SWF fixture {name!r} in workload {source.label!r}; "
            f"bundled fixtures: {list(BUNDLED_SWF)}"
        )
    path = Path(path_text)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    return path


def _resolve_source(
    source: TraceSource, base_dir: Path | None, store: TraceStore | None
) -> tuple[dict, SourceInfo]:
    """Workload spec fields + accounting for one non-synthetic source.

    Returns the ``ExperimentSpec`` keyword fragment ``{"trace_ref":
    digest}``; an SWF source's prepared rows are interned into ``store``
    once, and without a store it raises :class:`CampaignError`.
    """
    if source.kind == "ref":
        assert source.digest is not None
        if store is not None and source.digest not in store:
            raise CampaignError(
                f"workload {source.label!r}: trace {source.digest} is not in the "
                f"workload store {store.root} -- intern it first "
                "(repro.trace.archive.ingest_swf or TraceStore.put)"
            )
        info = SourceInfo(source=source, digest=source.digest, n_jobs=-1)
        return {"trace_ref": source.digest}, info
    from repro.trace.archive import prepare_trace, trace_rows
    from repro.trace.swf import parse_swf

    path = _resolve_swf_path(source, base_dir)
    if store is None:
        raise CampaignError(
            f"workload {source.label!r}: an swf workload is interned into "
            "a workload store, and expand() was given none (pass store=, "
            "e.g. a ResultCache's traces)"
        )
    parsed, parse_report = parse_swf(path)
    prepared, norm_report = prepare_trace(
        parsed,
        n_jobs=source.n_jobs,
        time_scale=source.time_scale,
        max_size=source.max_size,
        oversized=source.oversized,
        target_load=source.target_load,
    )
    digest = store.put(trace_rows(prepared))
    info = SourceInfo(
        source=source,
        digest=digest,
        n_jobs=len(prepared),
        parse=parse_report,
        normalize=norm_report,
    )
    return {"trace_ref": digest}, info


def _network_fragment(settings: dict):
    network = settings.get("network")
    if network is None:
        return None
    from repro.network.fluid import NetworkParams

    try:
        params = NetworkParams(**dict(network))
    except TypeError as exc:
        raise CampaignError(f"bad network settings {network!r}: {exc}") from None
    return ExperimentSpec.from_network_params(params)


def expand(
    campaign: Campaign,
    store: TraceStore | None = None,
    check: bool = True,
) -> Expansion:
    """Expand a campaign into its unique, validated cell list.

    Parameters
    ----------
    campaign:
        The validated campaign (``load_campaign`` validates on load).
    store:
        Workload store to intern SWF sources into and to check ``ref``
        sources against.  ``None`` expands synthetic and ``ref`` sources
        only: an ``swf`` source raises :class:`CampaignError`.
    check:
        Re-run :meth:`Campaign.validate` first (cheap; keeps
        programmatically built campaigns honest).
    """
    if check:
        campaign.validate()
    from repro.core.registry import make_allocator
    from repro.mesh.clos import build_topology

    axes = campaign.axes
    names = list(axes)
    machine_axis = "topology" if "topology" in axes else "mesh"
    expansion = Expansion(campaign=campaign)
    machines = {m.label: build_topology(m.label) for m in axes[machine_axis]}
    placeable: set[tuple[str, str]] = set()  # (allocator, machine) checked
    source_cache: dict[TraceSource, tuple[dict, SourceInfo]] = {}
    seen: dict[str, CampaignCell] = {}

    for values in itertools.product(*(axes[name] for name in names)):
        expansion.n_raw += 1
        raw = dict(zip(names, values))
        coords = {name: _coord_label(value) for name, value in raw.items()}
        if campaign.include and not any(
            _matches(f, coords) for f in campaign.include
        ):
            expansion.n_excluded += 1
            continue
        if any(_matches(f, coords) for f in campaign.exclude):
            expansion.n_excluded += 1
            continue

        settings = {
            "seed": 1,
            "scheduler": "fcfs",
            "n_jobs": 0,
            "runtime_scale": 1.0,
            "priority": None,
            "n_users": 0,
        }
        settings.update(campaign.defaults)
        for ov in campaign.overrides:
            if _matches(ov.when, coords):
                settings.update(ov.set)

        mesh: MeshAxis = raw[machine_axis]
        allocator: str = raw["allocator"]
        pairing = (allocator, mesh.label)
        if pairing not in placeable:
            try:
                make_allocator(allocator).check_places_on(machines[mesh.label])
            except ValueError as exc:
                raise CampaignError(
                    f"{exc} (cell {coords}); restrict the axis, or add an "
                    "[[exclude]] pairing them"
                ) from None
            placeable.add(pairing)

        source: TraceSource = raw.get("workload", TraceSource(kind="synthetic"))
        if source.kind == "synthetic":
            if int(settings["n_jobs"]) < 1:
                raise CampaignError(
                    f"cell {coords}: synthetic workloads need n_jobs >= 1 "
                    "(set it in [defaults] or an [[override]])"
                )
            workload = {
                "n_jobs": int(settings["n_jobs"]),
                "runtime_scale": float(settings["runtime_scale"]),
            }
            # Tenancy only shapes *generated* traces; explicit traces
            # carry their own user ids, so the knob stays out of their
            # specs (and cache keys).
            if int(settings["n_users"]):
                workload["n_users"] = int(settings["n_users"])
        else:
            if source not in source_cache:
                source_cache[source] = _resolve_source(
                    source, campaign.base_dir, store
                )
            fragment, info = source_cache[source]
            expansion.sources.setdefault(source.label, info)
            workload = dict(fragment)

        try:
            spec = ExperimentSpec(
                mesh_shape=mesh.shape,
                torus=mesh.torus,
                topology=mesh.topology,
                pattern=raw["pattern"],
                allocator=allocator,
                load=float(raw["load"]),
                seed=int(raw.get("seed", settings["seed"])),
                scheduler=raw.get("scheduler", settings["scheduler"]),
                priority=raw.get("priority", settings["priority"]),
                network=_network_fragment(settings),
                **workload,
            )
        except ValueError as exc:
            raise CampaignError(f"cell {coords}: {exc}") from None

        digest = cell_digest(spec)
        if digest in seen:
            expansion.n_deduped += 1
            continue
        cell = CampaignCell(
            index=len(expansion.cells), coords=coords, spec=spec, digest=digest
        )
        seen[digest] = cell
        expansion.cells.append(cell)

    if not expansion.cells:
        raise CampaignError(
            f"campaign {campaign.name!r} expands to zero cells "
            f"({expansion.n_raw} raw, {expansion.n_excluded} excluded) -- "
            "check the include/exclude filters"
        )
    payload = json.dumps(
        {"name": campaign.name, "cells": [c.digest for c in expansion.cells]},
        separators=(",", ":"),
    )
    expansion.digest = hashlib.sha256(payload.encode()).hexdigest()
    return expansion
