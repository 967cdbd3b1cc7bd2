"""Status and aggregation reports over expanded campaigns.

``status`` answers "how far along is this campaign?" from the manifest
without opening any artifact (the campaign must still be *expanded* to
know its cell digests, which re-resolves declared workload sources --
instant for synthetic axes, an SWF parse for file sources); ``report``
aggregates the *completed*
cells -- read straight from the artifact cache at summary level -- into
the plain-text comparison tables of :mod:`repro.analysis.tables`, grouped
by any axis: one pivot table per value of the grouping axis, cells
averaged over every axis not shown.  Grouping by ``mesh`` with exactly
two machine groups additionally emits the existing
``format_mesh_comparison`` ratio table, the same view the fig12/figswf
drivers print.
"""

from __future__ import annotations

import csv
import io
import json

from repro.analysis.tables import format_pivot, format_table
from repro.campaign.expand import CampaignCell, Expansion
from repro.campaign.manifest import CampaignManifest
from repro.runner import ResultCache

__all__ = [
    "completed_cells",
    "completed_rows",
    "export_report",
    "export_fairness_report",
    "fairness_rows",
    "format_campaign_report",
    "format_fairness_report",
    "format_campaign_status",
    "format_expansion",
    "REPORT_FORMATS",
]

#: ``report --format`` values: the human table plus two machine formats.
REPORT_FORMATS = ("table", "json", "csv")


def format_expansion(expansion: Expansion, manifest: CampaignManifest | None = None) -> str:
    """The cell table an ``expand`` invocation prints."""
    axis_names = expansion.axis_names
    rows = []
    for cell in expansion.cells:
        row = {"#": cell.index}
        row.update({axis: cell.coords[axis] for axis in axis_names})
        row["cell"] = cell.digest[:12]
        if manifest is not None:
            row["status"] = "done" if manifest.is_done(cell.digest) else "pending"
        rows.append(row)
    blocks = [expansion.summary()]
    for info in expansion.sources.values():
        blocks.append(f"workload {info.summary()}")
    blocks.append(format_table(rows, float_fmt="g"))
    return "\n".join(blocks)


def format_campaign_status(expansion: Expansion, manifest: CampaignManifest) -> str:
    """Completion counts plus per-invocation wall/cache accounting."""
    counts = manifest.counts([c.digest for c in expansion.cells])
    lines = [
        expansion.summary(),
        (
            f"{counts['done']}/{counts['total']} cells done "
            f"({counts['cached']} from cache, {counts['computed']} computed, "
            f"{counts['pending']} pending); "
            f"compute time {counts['compute_seconds']:.1f}s"
        ),
    ]
    if manifest.runs:
        # The runner column only appears once a drain has touched the
        # campaign, keeping single-process status output in its
        # original shape.
        has_runner = any(rec.get("runner") for rec in manifest.runs)
        run_rows = []
        for i, rec in enumerate(manifest.runs):
            row = {
                "run": i + 1,
                "cells": rec.get("n_selected", 0),
                "hits": rec.get("hits", 0),
                "misses": rec.get("misses", 0),
                "wall s": rec.get("wall", 0.0),
                "tier": rec.get("tier", ""),
            }
            if has_runner:
                row["runner"] = rec.get("runner", "")
            row["limit"] = rec.get("limit") if rec.get("limit") is not None else ""
            run_rows.append(row)
        lines.append(format_table(run_rows, float_fmt=".2f", title="run history"))
    else:
        lines.append("never run (no manifest entries)")
    if manifest.runners:
        import time as _time

        now = _time.time()
        beats = ", ".join(
            f"{rid} ({max(0.0, now - rec.get('heartbeat_at', 0.0)):.0f}s ago)"
            for rid, rec in sorted(manifest.runners.items())
        )
        lines.append(f"runners: {beats}")
    pending = [c for c in expansion.cells if not manifest.is_done(c.digest)]
    if pending:
        preview = ", ".join(str(dict(c.coords)) for c in pending[:3])
        more = f" (+{len(pending) - 3} more)" if len(pending) > 3 else ""
        lines.append(f"next pending: {preview}{more}")
    return "\n".join(lines)


def _check_metric(metric: str) -> None:
    """Reject unknown RunSummary metrics with the valid names listed."""
    from dataclasses import fields

    from repro.sched.stats import RunSummary

    known = {f.name for f in fields(RunSummary)}
    if metric not in known:
        raise ValueError(f"unknown metric {metric!r}; known: {sorted(known)}")


def _completed(expansion: Expansion, read, part: str) -> tuple[list, int]:
    """``(cell, getattr(result, part))`` for every cell ``read`` finds, in
    expansion order, plus the number of cells still missing."""
    pairs = []
    missing = 0
    for cell in expansion.cells:
        result = read(cell.spec)
        if result is None:
            missing += 1
            continue
        pairs.append((cell, getattr(result, part)))
    return pairs, missing


def completed_cells(
    expansion: Expansion, cache: ResultCache
) -> tuple[list[tuple[CampaignCell, object]], int]:
    """``(cell, RunSummary)`` for every cell with a cached artifact.

    Summary-level reads only (:meth:`ResultCache.peek`); returns the
    pairs in expansion order plus the number of cells still missing.
    """
    return _completed(expansion, cache.peek, "summary")


def _check_metric_axis_collision(metric: str, axis_names: list[str]) -> None:
    """Reject metric names that shadow an axis.

    ``RunSummary`` fields like ``allocator`` share names with axes; a
    colliding metric would overwrite the cell's coordinate in the flat
    rows and duplicate the CSV header column, so fail loudly instead.
    """
    if metric in axis_names:
        raise ValueError(
            f"metric {metric!r} collides with the campaign's {metric!r} axis "
            "-- the flat rows would overwrite the cell coordinate with the "
            "summary value; pick a numeric metric (e.g. 'mean_response')"
        )


def completed_rows(
    expansion: Expansion, cache: ResultCache, metric: str = "mean_response"
) -> tuple[list[dict], int]:
    """Coordinate + metric rows for every completed cell.

    Each row is the cell's axis coordinates plus the requested
    :class:`RunSummary` metric -- exactly what
    :func:`repro.analysis.tables.format_pivot` consumes.
    """
    _check_metric(metric)
    _check_metric_axis_collision(metric, expansion.axis_names)
    pairs, missing = completed_cells(expansion, cache)
    rows = []
    for cell, summary in pairs:
        row = dict(cell.coords)
        row[metric] = getattr(summary, metric)
        rows.append(row)
    return rows, missing


def export_report(
    expansion: Expansion,
    cache: ResultCache,
    metric: str = "mean_response",
    fmt: str = "json",
) -> str:
    """Machine-readable campaign results (``report --format json|csv``).

    One flat record per *completed* cell -- its axis coordinates plus the
    requested :class:`~repro.sched.stats.RunSummary` metric -- exactly
    the shape notebooks want (``pandas.DataFrame(payload["cells"])`` or
    ``pandas.read_csv``).  JSON wraps the records with the campaign
    name, axis order, metric and pending count; CSV is the bare records
    with a header row (axes in declaration order, metric last).
    """
    rows, missing = completed_rows(expansion, cache, metric=metric)
    if fmt == "json":
        payload = {
            "campaign": expansion.campaign.name,
            "axes": expansion.axis_names,
            "metric": metric,
            "completed": len(rows),
            "pending": missing,
            "cells": rows,
        }
        return json.dumps(payload, indent=2, sort_keys=False)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=expansion.axis_names + [metric])
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue().rstrip("\n")
    raise ValueError(f"unknown report format {fmt!r}; known: {list(REPORT_FORMATS)}")


def _default_axis(preferred: str, axis_names: list[str], taken: tuple) -> str:
    """``preferred`` unless another role claimed it; else the first free axis."""
    if preferred in axis_names and preferred not in taken:
        return preferred
    for axis in axis_names:
        if axis not in taken:
            return axis
    raise ValueError(
        f"campaign has too few axes to pivot: {axis_names} with {taken} taken"
    )


def format_campaign_report(
    expansion: Expansion,
    cache: ResultCache,
    group_by: str = "mesh",
    metric: str = "mean_response",
    rows_axis: str | None = None,
    cols_axis: str | None = None,
) -> str:
    """Axis-grouped comparison tables over the completed cells.

    One pivot table per value of ``group_by``, averaging ``metric`` over
    every axis not shown.  Rows default to the ``allocator`` axis and
    columns to ``load``; when ``group_by`` claims one of those, the
    default slides to the first remaining axis, so every axis is
    groupable without extra flags.  Grouping by ``mesh`` with exactly
    two groups adds the pairwise machine-comparison ratio table.
    """
    _check_metric(metric)
    _check_metric_axis_collision(metric, expansion.axis_names)
    axis_names = expansion.axis_names
    if group_by not in axis_names:
        raise ValueError(
            f"cannot group by {group_by!r}: campaign axes are {axis_names}"
        )
    if rows_axis is None:
        rows_axis = _default_axis("allocator", axis_names, taken=(group_by,))
    if cols_axis is None:
        cols_axis = _default_axis("load", axis_names, taken=(group_by, rows_axis))
    for name, value in (("rows", rows_axis), ("cols", cols_axis)):
        if value not in axis_names:
            raise ValueError(
                f"cannot use {value!r} as {name}: campaign axes are {axis_names}"
            )
        if value == group_by:
            raise ValueError(f"{name} axis {value!r} is already the group-by axis")

    pairs, missing = completed_cells(expansion, cache)
    header = (
        f"{expansion.summary()}\n"
        f"report over {len(pairs)} completed cells"
        + (f" ({missing} pending -- run the campaign to fill them in)" if missing else "")
    )
    if not pairs:
        return header
    blocks = [header]
    group_values = []
    for cell in expansion.cells:
        value = cell.coords[group_by]
        if value not in group_values:
            group_values.append(value)
    for value in group_values:
        subset = []
        for cell, summary in pairs:
            if cell.coords[group_by] != value:
                continue
            row = dict(cell.coords)
            row[metric] = getattr(summary, metric)
            subset.append(row)
        if not subset:
            continue
        blocks.append(
            format_pivot(
                subset,
                row_key=rows_axis,
                col_key=cols_axis,
                value_key=metric,
                float_fmt=".2f",
                title=f"{metric} -- {group_by} = {value}",
            )
        )
    if group_by == "mesh" and len(group_values) == 2:
        comparison = _mesh_comparison(pairs, group_values, metric)
        if comparison:
            blocks.append(comparison)
    if group_by in ("mesh", "topology"):
        panel = _contiguity_panel(pairs, group_by, group_values, metric)
        if panel:
            blocks.append(panel)
    return "\n\n".join(blocks)


def _contiguity_panel(pairs, group_by: str, group_values, metric: str) -> str:
    """Random-vs-best placement table: does contiguity still matter?

    For every machine in the grouping axis, the scattered ``random``
    baseline's mean ``metric`` next to the best locality-aware
    allocator's, plus their ratio.  On a mesh the ratio is well above 1
    (the paper's contiguity result); if a Clos fabric's ratio sits near
    1, placement locality has stopped mattering on that machine -- the
    bundled ``clos`` campaign's headline question.  Empty when the
    campaign has no ``random`` allocator to serve as the baseline.
    """
    rows = []
    for value in group_values:
        by_alloc: dict[str, list[float]] = {}
        for cell, summary in pairs:
            if cell.coords[group_by] != value:
                continue
            by_alloc.setdefault(cell.coords["allocator"], []).append(
                float(getattr(summary, metric))
            )
        means = {a: sum(v) / len(v) for a, v in by_alloc.items()}
        random_mean = means.pop("random", None)
        if random_mean is None or not means:
            continue
        best_name, best_mean = min(means.items(), key=lambda kv: (kv[1], kv[0]))
        rows.append(
            {
                group_by: value,
                "random": random_mean,
                "best": best_name,
                "best value": best_mean,
                "random/best": random_mean / best_mean if best_mean else float("nan"),
            }
        )
    if not rows:
        return ""
    return format_table(
        rows,
        float_fmt=".2f",
        title=(
            f"contiguity check -- random vs best placement ({metric}); "
            "ratio near 1 = placement stopped mattering"
        ),
    )


# ----------------------------------------------------------------------
# Fairness panels (per-tenant slowdown, max-min ratio, Jain's index)
# ----------------------------------------------------------------------

#: Metric columns of a fairness row, in report order.
FAIRNESS_COLUMNS = ("tenants", "p50", "p95", "p99", "max", "max_min", "jain")


def _fairness_pairs(
    expansion: Expansion, cache: ResultCache
) -> tuple[list[tuple[CampaignCell, list]], int]:
    """``(cell, [JobResult, ...])`` for every completed cell.

    Unlike :func:`completed_cells` this needs the per-job records, so it
    reads full artifacts (:meth:`ResultCache.get`) -- the packed columns
    decode to job results without rerunning anything.
    """
    return _completed(expansion, cache.get, "jobs")


def _fairness_metrics(jobs) -> dict:
    from repro.analysis.fairness import fairness_summary

    s = fairness_summary(jobs)
    return {
        "tenants": s.n_tenants,
        "p50": s.p50,
        "p95": s.p95,
        "p99": s.p99,
        "max": s.max,
        "max_min": s.max_min,
        "jain": s.jain,
    }


def fairness_rows(
    expansion: Expansion, cache: ResultCache
) -> tuple[list[dict], int]:
    """One flat fairness record per completed cell.

    Each row carries the cell's axis coordinates plus the per-tenant
    slowdown distribution (p50/p95/p99/max over per-tenant means), the
    max-min ratio and Jain's index -- the machine-readable form behind
    ``report --fairness --format json|csv``.
    """
    pairs, missing = _fairness_pairs(expansion, cache)
    rows = []
    for cell, jobs in pairs:
        row = dict(cell.coords)
        row.update(_fairness_metrics(jobs))
        rows.append(row)
    return rows, missing


def export_fairness_report(
    expansion: Expansion, cache: ResultCache, fmt: str = "json"
) -> str:
    """Machine-readable fairness records (``report --fairness``).

    Same envelope as :func:`export_report`: JSON wraps the per-cell
    records with campaign name, axis order and completion counts; CSV is
    the bare records (axes in declaration order, fairness metrics last).
    """
    rows, missing = fairness_rows(expansion, cache)
    if fmt == "json":
        payload = {
            "campaign": expansion.campaign.name,
            "axes": expansion.axis_names,
            "metric": "fairness",
            "completed": len(rows),
            "pending": missing,
            "cells": rows,
        }
        return json.dumps(payload, indent=2, sort_keys=False)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(
            out, fieldnames=expansion.axis_names + list(FAIRNESS_COLUMNS)
        )
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue().rstrip("\n")
    raise ValueError(f"unknown report format {fmt!r}; known: {list(REPORT_FORMATS)}")


def format_fairness_report(expansion: Expansion, cache: ResultCache) -> str:
    """The fairness panel: who waits, grouped by scheduler x allocator x load.

    One table per machine (and, when a workload axis exists, per
    workload): rows are the scheduler x allocator x load combinations in
    expansion order, with job lists *merged* across every remaining axis
    (pattern, seed) before computing the per-tenant distribution -- so a
    combination's tenants are judged on all of their jobs in that
    context.  Columns answer the campaign's question directly: does p99
    slowdown stay flat (and Jain's index near 1) as load rises?
    """
    pairs, missing = _fairness_pairs(expansion, cache)
    header = (
        f"{expansion.summary()}\n"
        f"fairness report over {len(pairs)} completed cells"
        + (f" ({missing} pending -- run the campaign to fill them in)" if missing else "")
    )
    if not pairs:
        return header
    axis_names = expansion.axis_names
    machine_axis = next(
        (a for a in ("mesh", "topology") if a in axis_names), axis_names[0]
    )
    context_axes = [machine_axis] + (["workload"] if "workload" in axis_names else [])
    combo_axes = [a for a in ("scheduler", "allocator", "load") if a in axis_names]
    merged: dict[tuple, dict[tuple, list]] = {}
    for cell, jobs in pairs:
        context = tuple(cell.coords[a] for a in context_axes)
        combo = tuple(cell.coords[a] for a in combo_axes)
        merged.setdefault(context, {}).setdefault(combo, []).extend(jobs)
    blocks = [header]
    for context, combos in merged.items():
        rows = []
        for combo, jobs in combos.items():
            row = dict(zip(combo_axes, combo))
            row.update(_fairness_metrics(jobs))
            rows.append(row)
        title = "per-tenant slowdown -- " + ", ".join(
            f"{axis} = {value}" for axis, value in zip(context_axes, context)
        )
        blocks.append(
            format_table(
                rows,
                columns=combo_axes + list(FAIRNESS_COLUMNS),
                float_fmt=".2f",
                title=title,
            )
        )
    return "\n\n".join(blocks)


def _mesh_comparison(pairs, meshes, metric: str) -> str:
    """The fig12-style two-machine ratio table, via the existing helpers."""
    from repro.analysis.tables import format_mesh_comparison
    from repro.campaign.runner import group_sweep_results

    groups = group_sweep_results(pairs)
    baseline, other = groups.get(meshes[0]), groups.get(meshes[1])
    if not baseline or not other:
        return ""
    return format_mesh_comparison(baseline, other, metric=metric)
