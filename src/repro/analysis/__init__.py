"""Analysis utilities: correlations (Figs 1/9/10), table formatting and
per-tenant fairness metrics (:mod:`repro.analysis.fairness`)."""

from repro.analysis.correlation import linear_fit, pearson_r, spearman_r
from repro.analysis.fairness import (
    FairnessSummary,
    fairness_summary,
    format_fairness_panel,
    jains_index,
    max_min_ratio,
    tenant_slowdowns,
)
from repro.analysis.tables import format_table

__all__ = [
    "pearson_r",
    "spearman_r",
    "linear_fit",
    "format_table",
    "jains_index",
    "max_min_ratio",
    "tenant_slowdowns",
    "FairnessSummary",
    "fairness_summary",
    "format_fairness_panel",
]
