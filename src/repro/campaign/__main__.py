"""Campaign CLI: expand, run, inspect and aggregate campaign files.

::

    python -m repro.campaign expand CAMPAIGN            # cell table
    python -m repro.campaign run CAMPAIGN --jobs 4      # execute (resumable)
    python -m repro.campaign run CAMPAIGN --limit 10    # next 10 pending cells
    python -m repro.campaign run CAMPAIGN --tier process
    python -m repro.campaign drain CAMPAIGN --runners 2 # cooperative fleet
    python -m repro.campaign drain CAMPAIGN             # join an ongoing drain
    python -m repro.campaign status CAMPAIGN            # manifest counts
    python -m repro.campaign report CAMPAIGN --group-by mesh
    python -m repro.campaign report CAMPAIGN --format json > cells.json
    python -m repro.campaign prune CAMPAIGN --dry-run   # retire artifacts+manifest

``CAMPAIGN`` is a path to a ``.toml``/``.json`` campaign file or the name
of a bundled campaign (``clos``, ``fairness``, ``fig07``, ``fig08``,
``fig12``, ``figswf``, ``multishape``, ``smoke`` -- see
``src/repro/campaign/data/``).  Results land in the
standard artifact cache (``--cache-dir`` / ``$REPRO_CACHE_DIR``); the
campaign manifest lives under ``<cache>/campaigns/`` and re-``run``\\ ning
an interrupted campaign resumes from it with every completed cell served
warm.

``--tier`` picks the engine's execution tier (default ``auto``: tiny
pending grids run in-process, big ones fan out over workers); results
and artifacts are identical for every tier.  ``run`` and ``drain`` execute
through one loop: every process pointed at the same campaign and cache
root claims pending cells through per-cell lease files (no duplicated
compute, dead runners' leases stolen after a TTL).  ``run`` is a
one-runner drain with one batch -- it claims every pending cell at once
and prints every selected cell -- while ``drain`` claims ``--batch``
cells at a time as one of a fleet finishing one campaign together;
``--runners N`` spawns such a fleet locally.
``report --format json|csv``
exports the completed cells for notebooks; ``prune`` deletes a
campaign's artifacts and manifest in one step (``--dry-run`` first).
See ``docs/campaign-format.md`` for the complete file-format reference.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign.expand import expand
from repro.campaign.manifest import CampaignManifest, manifest_path
from repro.campaign.model import (
    CampaignError,
    bundled_campaign_names,
    bundled_campaign_path,
    load_campaign,
)
from repro.campaign.report import (
    REPORT_FORMATS,
    export_fairness_report,
    export_report,
    format_campaign_report,
    format_fairness_report,
    format_campaign_status,
    format_expansion,
)
from repro.campaign.lease import DEFAULT_LEASE_TTL
from repro.campaign.runner import drain_campaign, prune_campaign, run_campaign
from repro.runner import ResultCache
from repro.runner.cli import CACHE_DIR_HELP, add_engine_flags, bad_jobs

__all__ = ["main", "resolve_campaign_path"]


def resolve_campaign_path(arg: str) -> Path:
    """A filesystem path as-is, else a bundled campaign by name."""
    path = Path(arg)
    if path.is_file():
        return path
    try:
        return bundled_campaign_path(arg)
    except KeyError:
        raise FileNotFoundError(
            f"no campaign file {arg!r} and no bundled campaign of that name; "
            f"bundled: {', '.join(bundled_campaign_names())}"
        ) from None


def _open(args) -> tuple:
    """(campaign, cache) for a parsed command line."""
    campaign = load_campaign(resolve_campaign_path(args.campaign))
    cache = None if getattr(args, "no_cache", False) else ResultCache(args.cache_dir)
    return campaign, cache


def _manifest_for(campaign, expansion, cache) -> CampaignManifest:
    path = manifest_path(cache.root, campaign.name, expansion.digest)
    return CampaignManifest.open(path, campaign.name, expansion.digest)


def _expand(args) -> int:
    campaign, cache = _open(args)
    expansion = expand(campaign, store=cache.traces)
    print(format_expansion(expansion, _manifest_for(campaign, expansion, cache)))
    return 0


def _cell_progress(quiet: bool):
    """Per-cell progress printer shared by ``run`` and ``drain``."""

    def progress(done: int, total: int, cell) -> None:
        if not quiet:
            tag = "cache" if cell.cached else f"{cell.elapsed:.2f}s"
            print(
                f"[{done}/{total}] {cell.summary.pattern} | "
                f"{'x'.join(str(n) for n in cell.summary.mesh_shape)} | "
                f"{cell.summary.allocator} @ {cell.summary.load_factor:g} ({tag})",
                flush=True,
            )

    return progress


def _execute(args) -> int:
    """``run`` and ``drain``: one campaign execution, one summary."""
    if args.command == "drain" and args.runners > 1:
        return _drain_fleet(args)
    campaign, cache = _open(args)
    shared = dict(jobs=args.jobs, progress=_cell_progress(args.quiet), tier=args.tier)
    if args.command == "run":
        result = run_campaign(campaign, cache, limit=args.limit, **shared)
    else:
        result = drain_campaign(
            campaign,
            cache,
            runner=args.runner_id,
            batch=args.batch,
            lease_ttl=args.lease_ttl,
            **shared,
        )
    print(result.summary_line())
    if result.tier_decision is not None:
        print(f"[tier] {result.tier_decision.describe()}")
    if cache is not None:
        print(cache.stats_line())
    return 0


def _drain_fleet(args) -> int:
    """Spawn ``--runners N`` cooperating drain processes and supervise.

    Each child is this very CLI with ``--runners 1`` and a derived
    ``--runner-id``; the children coordinate purely through the shared
    cache root, exactly as runners on separate hosts would.  The parent
    waits for all of them, then reports the merged manifest state plus a
    duplicate-compute count (cells computed more than once -- zero under
    the lease protocol short of lease-TTL steals racing a live runner).
    """
    import os
    import socket
    import subprocess

    base = args.runner_id or f"{socket.gethostname()}-{os.getpid()}"
    common = [
        sys.executable,
        "-m",
        "repro.campaign",
        "drain",
        args.campaign,
        "--runners",
        "1",
        "--jobs",
        str(args.jobs),
        "--batch",
        str(args.batch),
        "--lease-ttl",
        str(args.lease_ttl),
    ]
    if args.cache_dir is not None:
        common += ["--cache-dir", args.cache_dir]
    if args.tier is not None:
        common += ["--tier", args.tier]
    if args.quiet:
        common += ["--quiet"]
    procs = [
        subprocess.Popen(common + ["--runner-id", f"{base}-r{i}"])
        for i in range(args.runners)
    ]
    codes = [p.wait() for p in procs]

    campaign, cache = _open(args)
    expansion = expand(campaign, store=cache.traces)
    manifest = _manifest_for(campaign, expansion, cache)
    counts = manifest.counts([c.digest for c in expansion.cells])
    fleet = {f"{base}-r{i}" for i in range(args.runners)}
    fleet_misses = sum(
        rec.get("misses", 0)
        for rec in manifest.runs
        if rec.get("mode") == "drain" and rec.get("runner") in fleet
    )
    duplicates = max(0, fleet_misses - counts["computed"])
    print(
        f"fleet of {args.runners} runners: {counts['done']}/{counts['total']} "
        f"cells done ({counts['computed']} computed, {counts['cached']} cached); "
        f"fleet computed {fleet_misses} cells, duplicates={duplicates}"
    )
    return max(codes, default=0)


def _status(args) -> int:
    campaign, cache = _open(args)
    expansion = expand(campaign, store=cache.traces)
    print(format_campaign_status(expansion, _manifest_for(campaign, expansion, cache)))
    return 0


def _report(args) -> int:
    campaign, cache = _open(args)
    expansion = expand(campaign, store=cache.traces)
    shaping = [
        flag
        for flag, value in (
            ("--group-by", args.group_by),
            ("--rows", args.rows),
            ("--cols", args.cols),
        )
        if value is not None
    ]
    if args.fairness:
        if args.metric != "mean_response":
            shaping.append("--metric")
        if shaping:
            print(
                f"{'/'.join(shaping)} do not apply to the fairness panel "
                "(it is always grouped by scheduler x allocator x load)",
                file=sys.stderr,
            )
            return 2
        if args.format != "table":
            print(export_fairness_report(expansion, cache, fmt=args.format))
        else:
            print(format_fairness_report(expansion, cache))
        return 0
    if args.format != "table":
        # json/csv are the flat per-cell records; the pivot-shaping
        # flags only apply to tables, so passing them is a mistake the
        # user should hear about rather than silently lose.
        if shaping:
            print(
                f"{'/'.join(shaping)} only shape the table format; "
                f"--format {args.format} always exports the flat per-cell "
                "records (group in your notebook instead)",
                file=sys.stderr,
            )
            return 2
        print(export_report(expansion, cache, metric=args.metric, fmt=args.format))
        return 0
    group_by = args.group_by
    if group_by is None:
        # Default to the machine axis, whichever spelling the campaign
        # uses; campaigns always have at least the four required axes.
        names = expansion.axis_names
        group_by = next(
            (a for a in ("mesh", "topology") if a in names), names[0]
        )
    print(
        format_campaign_report(
            expansion,
            cache,
            group_by=group_by,
            metric=args.metric,
            rows_axis=args.rows,
            cols_axis=args.cols,
        )
    )
    return 0


def _prune(args) -> int:
    campaign, cache = _open(args)
    removed, manifest_file = prune_campaign(campaign, cache, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    manifest_note = (
        f" and its manifest ({manifest_file})"
        if manifest_file is not None
        else " (no manifest on disk)"
    )
    print(
        f"{verb} {len(removed)} artifacts of campaign "
        f"{campaign.name!r}{manifest_note}"
    )
    if removed and not args.dry_run:
        print("run 'python -m repro.runner vacuum' to drop traces no "
              "remaining artifact references")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Expand, run and aggregate declarative campaign files "
        "(see src/repro/campaign/data/ for bundled examples).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p) -> None:
        p.add_argument(
            "campaign",
            help="campaign file path, or a bundled campaign name "
            f"({', '.join(bundled_campaign_names()) or 'none bundled'})",
        )
        add_engine_flags(p, cache_dir=CACHE_DIR_HELP)

    p_expand = sub.add_parser("expand", help="print the expanded cell table")
    add_common(p_expand)

    def add_execution(p, jobs_default: int | None, jobs_help: str) -> None:
        """Flags shared by the two verbs that execute cells."""
        add_common(p)
        add_engine_flags(
            p,
            jobs=(jobs_default, jobs_help),
            tier="execution tier (default: 'auto'); results are identical "
            "for every tier",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-cell progress lines"
        )

    p_run = sub.add_parser(
        "run",
        help="run the campaign as one runner (resumes from the manifest)",
    )
    add_execution(
        p_run,
        None,
        "worker processes (default: auto-tuned from usable CPUs and "
        "the manifest's recorded cell cost; 1 = serial)",
    )
    p_run.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="run at most N pending cells (incremental execution)",
    )
    add_engine_flags(
        p_run, no_cache="run against a throwaway cache (nothing persisted or resumable)"
    )

    p_drain = sub.add_parser(
        "drain",
        help="cooperatively drain the campaign (N runners, one cache root, "
        "no duplicated compute)",
    )
    add_execution(
        p_drain,
        1,
        "engine worker processes per runner (default: 1 -- the "
        "runners themselves are the parallelism)",
    )
    p_drain.add_argument(
        "--runners",
        type=int,
        default=1,
        metavar="N",
        help="spawn N cooperating local runner processes (default: 1 = "
        "join the drain as a single runner)",
    )
    p_drain.add_argument(
        "--runner-id",
        default=None,
        help="stable runner identifier for leases and the manifest "
        "(default: <host>-<pid>; with --runners N the fleet derives "
        "<id>-r0..rN-1)",
    )
    p_drain.add_argument(
        "--batch",
        type=int,
        default=8,
        metavar="N",
        help="cells claimed per lease batch (default: 8)",
    )
    p_drain.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="seconds without heartbeats before a runner's leases can be "
        f"stolen (default: {DEFAULT_LEASE_TTL:g})",
    )

    p_status = sub.add_parser("status", help="completion counts from the manifest")
    add_common(p_status)

    p_report = sub.add_parser(
        "report", help="aggregate completed cells into axis-grouped tables"
    )
    add_common(p_report)
    p_report.add_argument(
        "--group-by",
        default=None,
        help="axis to group tables by (default: the machine axis -- mesh "
        "or topology; table format only)",
    )
    p_report.add_argument(
        "--metric",
        default="mean_response",
        help="RunSummary metric to aggregate (default: mean_response)",
    )
    p_report.add_argument(
        "--rows",
        default=None,
        help="axis for table rows (default: allocator, or the first free axis)",
    )
    p_report.add_argument(
        "--cols",
        default=None,
        help="axis for table columns (default: load, or the first free axis)",
    )
    p_report.add_argument(
        "--format",
        default="table",
        choices=REPORT_FORMATS,
        help="output format: human tables, or json/csv cell records for "
        "notebooks (default: table)",
    )
    p_report.add_argument(
        "--fairness",
        action="store_true",
        help="per-tenant fairness panel (slowdown p50/p95/p99/max, "
        "max-min ratio, Jain's index) grouped by scheduler x allocator "
        "x load instead of the metric pivot",
    )

    p_prune = sub.add_parser(
        "prune",
        help="retire a campaign: delete its cached artifacts and its manifest",
    )
    add_common(p_prune)
    p_prune.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )

    args = parser.parse_args(argv)
    if bad_jobs(args):
        return 2
    if args.command == "drain":
        for flag, value, floor in (
            ("--runners", args.runners, 1),
            ("--batch", args.batch, 1),
        ):
            if value < floor:
                print(f"{flag} must be >= {floor}, got {value}", file=sys.stderr)
                return 2
        if args.lease_ttl <= 0:
            print(f"--lease-ttl must be > 0, got {args.lease_ttl:g}", file=sys.stderr)
            return 2
    handler = {
        "expand": _expand,
        "run": _execute,
        "drain": _execute,
        "status": _status,
        "report": _report,
        "prune": _prune,
    }[args.command]
    try:
        return handler(args)
    except (CampaignError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
