"""Declarative experiment campaigns.

The paper's evaluation is a *matrix* of scenarios -- communication
patterns x allocation strategies x machine shapes x loads -- and this
subsystem makes that matrix a data file instead of a Python driver: a
TOML/JSON **campaign file** declares the axes, filters and per-cell
overrides; :func:`expand` turns it into validated
:class:`~repro.runner.spec.ExperimentSpec` cells (deduplicated by
content digest, workloads interned into the content-addressed store);
:func:`run_campaign` executes them on the parallel engine with a
**manifest** next to the cache that makes interrupted campaigns resume
warm; and the report helpers aggregate completed cells into comparison
tables grouped by any axis.  Execution claims cells through the
lease/claim protocol (:mod:`repro.campaign.lease`): a run is one runner
claiming every pending cell at once, and :func:`drain_campaign` lets N
runner processes sharing a cache root drain one campaign cooperatively
-- the ``drain`` CLI verb, with ``--runners N`` spawning a local fleet.

The bundled campaign files under ``repro/campaign/data/`` reproduce the
fig07 / fig08 / fig12 / figswf panels (the figure drivers are now thin shims over
them) plus a multi-shape panel no hand-written driver covers.  CLI::

    python -m repro.campaign expand fig07
    python -m repro.campaign run    path/to/campaign.toml --jobs 4
    python -m repro.campaign status fig07
    python -m repro.campaign report fig07 --group-by mesh
"""

from repro.campaign.expand import CampaignCell, Expansion, SourceInfo, cell_digest, expand
from repro.campaign.lease import DEFAULT_LEASE_TTL, FileLock, Lease, LeaseDir, lease_dir_path
from repro.campaign.manifest import CampaignManifest, manifest_path
from repro.campaign.model import (
    Campaign,
    CampaignError,
    MeshAxis,
    TraceSource,
    bundled_campaign_names,
    bundled_campaign_path,
    load_campaign,
    loads_campaign,
    parse_mesh,
)
from repro.campaign.report import (
    REPORT_FORMATS,
    completed_cells,
    completed_rows,
    export_report,
    format_campaign_report,
    format_campaign_status,
    format_expansion,
)
from repro.campaign.runner import (
    CampaignRun,
    drain_campaign,
    prune_campaign,
    run_campaign,
)

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignError",
    "CampaignManifest",
    "CampaignRun",
    "DEFAULT_LEASE_TTL",
    "Expansion",
    "FileLock",
    "Lease",
    "LeaseDir",
    "MeshAxis",
    "REPORT_FORMATS",
    "SourceInfo",
    "TraceSource",
    "bundled_campaign_names",
    "bundled_campaign_path",
    "cell_digest",
    "completed_cells",
    "completed_rows",
    "drain_campaign",
    "expand",
    "export_report",
    "format_campaign_report",
    "format_campaign_status",
    "format_expansion",
    "lease_dir_path",
    "load_campaign",
    "loads_campaign",
    "manifest_path",
    "parse_mesh",
    "prune_campaign",
    "run_campaign",
]
