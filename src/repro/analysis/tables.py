"""Plain-text table rendering for reports."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_pivot",
    "format_mesh_comparison",
]


def _fmt(value, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    rows: Iterable[Mapping],
    columns: Sequence[str] | None = None,
    float_fmt: str = ".2f",
    title: str | None = None,
) -> str:
    """Render dict rows as an aligned plain-text table.

    ``columns`` selects/orders the keys (defaults to the first row's keys).
    Floats format with ``float_fmt``; all cells right-align except the first
    column.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col, ""), float_fmt) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in cells))
        for i, col in enumerate(columns)
    ]

    def render_row(values: Sequence[str]) -> str:
        parts = []
        for i, v in enumerate(values):
            parts.append(v.ljust(widths[i]) if i == 0 else v.rjust(widths[i]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(c) for c in columns]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(r) for r in cells)
    return "\n".join(lines)


#: Aggregations :func:`format_pivot` knows how to apply to a bucket.
_PIVOT_AGGS = {
    "mean": lambda vs: sum(vs) / len(vs),
    "min": min,
    "max": max,
    "sum": sum,
    "count": len,
}


def format_pivot(
    rows: Iterable[Mapping],
    row_key: str,
    col_key: str,
    value_key: str,
    agg: str = "mean",
    float_fmt: str = ".2f",
    title: str | None = None,
) -> str:
    """Pivot dict rows into a ``row_key x col_key`` table of ``value_key``.

    Rows sharing a (row, column) coordinate are aggregated with ``agg``
    (``mean``/``min``/``max``/``sum``/``count``) -- e.g. averaging a
    metric over the seed and pattern axes of a campaign when grouping by
    mesh.  Row order follows first appearance; column order follows first
    appearance too, so callers control both by ordering their rows.
    """
    if agg not in _PIVOT_AGGS:
        raise ValueError(f"unknown agg {agg!r}; known: {sorted(_PIVOT_AGGS)}")
    rows = list(rows)
    buckets: dict[tuple, list] = {}
    row_order: list = []
    col_order: list = []
    for row in rows:
        r, c = row[row_key], row[col_key]
        if r not in row_order:
            row_order.append(r)
        if c not in col_order:
            col_order.append(c)
        buckets.setdefault((r, c), []).append(row[value_key])
    def col_label(c) -> str:
        return f"{col_key} {c:g}" if isinstance(c, (int, float)) else str(c)

    out_rows = []
    for r in row_order:
        out = {row_key: r}
        for c in col_order:
            values = buckets.get((r, c))
            if values:
                out[col_label(c)] = _PIVOT_AGGS[agg](values)
        out_rows.append(out)
    columns = [row_key] + [col_label(c) for c in col_order]
    return format_table(out_rows, columns=columns, float_fmt=float_fmt, title=title)


def format_mesh_comparison(
    baseline,
    other,
    metric: str = "mean_response",
) -> str:
    """Allocator-by-load comparison of two sweeps over different machines.

    ``baseline`` and ``other`` are lists of
    :class:`~repro.experiments.sweep.SweepResult` (one per pattern) from
    the *same* workload on two machines -- e.g. fig12's 16x16 mesh and
    8x8x8 torus.  One table per pattern shared by both sweeps; each row is
    an (allocator, load) cell present in both, with the metric on either
    machine and the ``other / baseline`` ratio (< 1 means the job stream
    finishes faster on the ``other`` machine).
    """

    def label(result) -> str:
        kind = "torus" if result.torus else "mesh"
        return "x".join(str(n) for n in result.mesh_shape) + f" {kind}"

    by_pattern = {r.pattern: r for r in other}
    blocks = []
    for base in baseline:
        o = by_pattern.get(base.pattern)
        if o is None:
            continue
        base_cells = {(c.allocator, c.load_factor): c for c in base.cells}
        rows = []
        for cell in o.cells:
            ref = base_cells.get((cell.allocator, cell.load_factor))
            if ref is None:
                continue
            a = getattr(ref, metric)
            b = getattr(cell, metric)
            rows.append(
                {
                    "allocator": cell.allocator,
                    "load": cell.load_factor,
                    label(base): a,
                    label(o): b,
                    "ratio": b / a if a else float("nan"),
                }
            )
        rows.sort(key=lambda r: (r["allocator"], -r["load"]))
        blocks.append(
            format_table(
                rows,
                float_fmt=".2f",
                title=(
                    f"{metric} -- {label(o)} vs {label(base)}, "
                    f"{base.pattern} pattern"
                ),
            )
        )
    return "\n\n".join(blocks)
