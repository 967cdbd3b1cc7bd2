"""Command-line flags shared by the ``experiments``, ``campaign`` and
``runner`` CLIs: ``--cache-dir``, ``--no-cache``, ``--jobs`` and
``--tier``, each defined once here and added by every CLI that takes it.
"""

from __future__ import annotations

import argparse
import sys

from repro.runner.engine import TIERS

__all__ = ["CACHE_DIR_HELP", "add_engine_flags", "bad_jobs"]

CACHE_DIR_HELP = "cache directory (default: $REPRO_CACHE_DIR or .repro-cache)"


def add_engine_flags(
    parser: argparse.ArgumentParser,
    *,
    cache_dir: str | None = None,
    no_cache: str | None = None,
    jobs: tuple[int | None, str] | None = None,
    tier: str | None = None,
) -> None:
    """Add each flag whose help text is given; ``None`` leaves it out.

    ``jobs`` is ``(default, help)``, since its default differs per
    verb; check the parsed value with :func:`bad_jobs`.
    """
    if jobs is not None:
        default, help_text = jobs
        parser.add_argument("--jobs", type=int, default=default, help=help_text)
    if no_cache is not None:
        parser.add_argument("--no-cache", action="store_true", help=no_cache)
    if tier is not None:
        parser.add_argument("--tier", default=None, choices=TIERS, help=tier)
    if cache_dir is not None:
        parser.add_argument("--cache-dir", default=None, help=cache_dir)


def bad_jobs(args: argparse.Namespace) -> bool:
    """Whether ``--jobs`` is below 1, which is then reported on stderr;
    the CLIs exit with code 2 on it."""
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return True
    return False
