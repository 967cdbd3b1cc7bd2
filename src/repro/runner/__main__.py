"""Cache lifecycle CLI for the experiment engine.

``.repro-cache/`` grows without bound as sweeps accumulate; this tool
lists, ages out, and repairs it -- both the cell artifacts and the
content-addressed workload store underneath them::

    python -m repro.runner ls                      # artifact table + totals
    python -m repro.runner ls --pattern n-body     # filter by cell coordinates
    python -m repro.runner prune --older-than 30   # age out stale artifacts
    python -m repro.runner prune --older-than 30 --dry-run
    python -m repro.runner prune --max-mb 256      # size cap, oldest evicted
    python -m repro.runner prune --spec-substr n-body     # spec-filtered
    python -m repro.runner vacuum                  # corrupt artifacts, temp
                                                   # leftovers, orphan traces
    python -m repro.runner export fig07            # campaign -> one bundle
    python -m repro.runner export n-body -o nb.tgz # spec-substr selection
    python -m repro.runner import nb.tgz           # digest-verified unpack

``--cache-dir`` (or ``$REPRO_CACHE_DIR``) selects the cache.  ``prune``
removes cell artifacts three ways -- by age (``--older-than DAYS``,
optionally restricted by ``--spec-substr``), by spec content alone
(``--spec-substr`` matches the artifact's canonical spec JSON), or by
total size (``--max-mb N`` evicts oldest-first until the artifacts fit);
follow with ``vacuum`` to drop traces nothing references any more.

``export`` packs artifacts + the traces they reference (and, for a
campaign target, its manifest) into one deterministic gzip bundle;
``import`` unpacks into the local cache with every member digest-verified
and already-present content skipped -- how machines that cannot share a
cache root exchange warm results (see :mod:`repro.runner.bundle`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.tables import format_table
from repro.runner.bundle import BundleError, export_bundle, import_bundle
from repro.runner.cache import ResultCache
from repro.runner.cli import CACHE_DIR_HELP, add_engine_flags

__all__ = ["main"]


def _fmt_age(seconds: float) -> str:
    days = seconds / 86400.0
    return f"{days:.1f}d" if days >= 1 else f"{seconds / 3600.0:.1f}h"


def _ls(cache: ResultCache, args) -> int:
    now = time.time()
    rows = []
    for path, cell in cache.iter_entries(load_jobs=False):
        spec = cell.spec
        if args.pattern is not None and spec.pattern != args.pattern:
            continue
        if args.allocator is not None and spec.allocator != args.allocator:
            continue
        trace = "synthetic" if spec.trace_ref is None else spec.trace_ref[:12]
        rows.append(
            {
                "key": path.name.partition(".")[0][:12],
                "pattern": spec.pattern,
                "mesh": spec.topology
                or "x".join(str(n) for n in spec.mesh_shape)
                + ("t" if spec.torus else ""),
                "allocator": spec.allocator,
                "load": spec.load,
                "trace": trace,
                "kB": path.stat().st_size / 1024.0,
                "age": _fmt_age(now - path.stat().st_mtime),
            }
        )
    print(format_table(rows, float_fmt=".2f", title=f"artifacts in {cache.root}"))
    total_kb = sum(r["kB"] for r in rows)
    print(f"{len(rows)} artifacts, {total_kb:.0f} kB")
    n_traces = len(cache.traces)
    if n_traces or args.pattern is None:
        print(
            f"workload store: {n_traces} traces, "
            f"{cache.traces.size_bytes() / 1024.0:.0f} kB in {cache.traces.root}"
        )
    return 0


def _prune(cache: ResultCache, args) -> int:
    if args.older_than is None and args.max_mb is None and args.spec_substr is None:
        print(
            "prune needs at least one of --older-than, --max-mb, --spec-substr",
            file=sys.stderr,
        )
        return 2
    if args.max_mb is not None and (
        args.older_than is not None or args.spec_substr is not None
    ):
        print(
            "--max-mb is a total-size cap and cannot combine with "
            "--older-than/--spec-substr (run two prunes instead)",
            file=sys.stderr,
        )
        return 2
    if args.max_mb is not None and args.max_mb < 0:
        print(f"--max-mb must be >= 0, got {args.max_mb:g}", file=sys.stderr)
        return 2
    verb = "would remove" if args.dry_run else "removed"
    if args.max_mb is not None:
        evicted, remaining = cache.prune_to_size(
            int(args.max_mb * 1024 * 1024), dry_run=args.dry_run
        )
        print(
            f"{verb} {len(evicted)} oldest artifacts to fit {args.max_mb:g} MB; "
            f"{remaining / (1024.0 * 1024.0):.1f} MB of artifacts remain in {cache.root}"
        )
        stale = evicted
    else:
        stale = cache.prune(
            args.older_than, dry_run=args.dry_run, spec_substr=args.spec_substr
        )
        criteria = []
        if args.older_than is not None:
            criteria.append(f"older than {args.older_than:g} days")
        if args.spec_substr is not None:
            criteria.append(f"with spec matching {args.spec_substr!r}")
        print(f"{verb} {len(stale)} artifacts {' and '.join(criteria)} from {cache.root}")
    if stale and not args.dry_run:
        print("run 'vacuum' to drop traces no remaining artifact references")
    return 0


def _vacuum(cache: ResultCache, args) -> int:
    report = cache.vacuum(dry_run=args.dry_run, orphan_grace_days=args.orphan_grace)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {report.corrupt_artifacts} corrupt artifacts, "
        f"{report.tmp_files} temp leftovers, "
        f"{report.orphan_traces} orphan traces from {cache.root}"
    )
    return 0


def _resolve_export(cache: ResultCache, target: str, export_all: bool):
    """(artifact paths, campaign manifest files, default output name)."""
    from repro.campaign.manifest import MANIFEST_DIRNAME

    if export_all:
        manifests = sorted((cache.root / MANIFEST_DIRNAME).glob("*.json"))
        return list(cache._artifact_paths()), manifests, "repro-cache.bundle.tgz"
    # A campaign (bundled name or file path) first, else a spec substring.
    try:
        from repro.campaign.__main__ import resolve_campaign_path
        from repro.campaign.expand import expand
        from repro.campaign.manifest import manifest_path
        from repro.campaign.model import load_campaign

        campaign = load_campaign(resolve_campaign_path(target))
    except FileNotFoundError:
        paths = [
            p for p in cache._artifact_paths() if cache._spec_matches(p, target)
        ]
        return paths, [], "repro-bundle.tgz"
    expansion = expand(campaign, store=cache.traces)
    paths = [cache._key_path(cell.digest) for cell in expansion.cells]
    paths = [p for p in paths if p.is_file()]
    mpath = manifest_path(cache.root, campaign.name, expansion.digest)
    manifests = [mpath] if mpath.is_file() else []
    return paths, manifests, f"{campaign.name}-{expansion.digest[:12]}.bundle.tgz"


def _export(cache: ResultCache, args) -> int:
    paths, manifests, default_out = _resolve_export(cache, args.target, args.all)
    if not paths and not manifests:
        print(
            f"nothing to export: no artifacts match {args.target!r} "
            f"in {cache.root}",
            file=sys.stderr,
        )
        return 2
    out = args.output if args.output is not None else default_out
    report = export_bundle(cache, out, paths, campaign_manifests=manifests)
    print(report.summary_line())
    return 0


def _import(cache: ResultCache, args) -> int:
    try:
        report = import_bundle(cache, args.bundle)
    except BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary_line())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-runner",
        description="Inspect and maintain the experiment result cache "
        "(.repro-cache/ artifacts and the traces/ workload store).",
    )
    add_engine_flags(parser, cache_dir=CACHE_DIR_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list artifacts and workload-store totals")
    p_ls.add_argument("--pattern", default=None, help="only cells with this pattern")
    p_ls.add_argument("--allocator", default=None, help="only cells with this allocator")

    p_prune = sub.add_parser(
        "prune", help="delete artifacts by age, spec content, or total size"
    )
    p_prune.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="age cutoff in days (fractions allowed)",
    )
    p_prune.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="evict oldest artifacts until the cache fits this many MB "
        "(exclusive with the other criteria)",
    )
    p_prune.add_argument(
        "--spec-substr",
        default=None,
        metavar="SUBSTR",
        help="only artifacts whose canonical spec JSON contains SUBSTR "
        "(e.g. n-body or '\"allocator\":\"mc\"')",
    )
    p_prune.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )

    p_vac = sub.add_parser(
        "vacuum",
        help="remove corrupt artifacts, temp leftovers, and orphaned traces",
    )
    p_vac.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )
    p_vac.add_argument(
        "--orphan-grace",
        type=float,
        default=1.0,
        metavar="DAYS",
        help="keep unreferenced traces newer than this (protects staged "
        "ingests and in-flight sweeps; default: 1 day)",
    )

    p_exp = sub.add_parser(
        "export",
        help="pack artifacts + referenced traces (+ campaign manifest) "
        "into one digest-verified bundle",
    )
    p_exp.add_argument(
        "target",
        help="what to export: a campaign (bundled name or file path) or a "
        "spec substring (matched like prune --spec-substr)",
    )
    p_exp.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="bundle file to write (default: <campaign>-<digest>.bundle.tgz "
        "for campaigns, repro-bundle.tgz otherwise)",
    )
    p_exp.add_argument(
        "--all",
        action="store_true",
        help="export every artifact and campaign manifest in the cache "
        "(target is ignored; pass e.g. 'all')",
    )

    p_imp = sub.add_parser(
        "import",
        help="unpack a bundle into the cache (every member digest-verified, "
        "present content skipped, campaign manifests merged)",
    )
    p_imp.add_argument("bundle", help="bundle file written by export")

    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)
    handler = {
        "ls": _ls,
        "prune": _prune,
        "vacuum": _vacuum,
        "export": _export,
        "import": _import,
    }[args.command]
    return handler(cache, args)


if __name__ == "__main__":
    sys.exit(main())
