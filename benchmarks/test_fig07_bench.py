"""Bench: Fig 7 -- response time vs load on the 16x22 mesh.

One benchmark per panel (all-to-all / n-body / random).  Assertions keep to
the shapes that survive the reduced trace: response time rises as arrivals
contract, and the panel series exist for all nine strategies at every load.
"""

import numpy as np

from repro.campaign import bundled_campaign_path, load_campaign, run_campaign
from repro.experiments import fig07_sweep16x22
from repro.experiments.sweep import PAPER_ALLOCATORS, report_sweep


def _panel(run_once, scale, pattern):
    campaign = load_campaign(bundled_campaign_path(fig07_sweep16x22.CAMPAIGN)).scaled(scale)
    campaign.include = [{"pattern": pattern}]
    crun = run_once(run_campaign, campaign)
    (results,) = crun.sweep_results().values()
    panel = results[0]
    print()
    print(report_sweep(results))
    series = panel.series()
    assert set(series) == set(PAPER_ALLOCATORS)
    loads = sorted(scale.loads, reverse=True)
    for name, points in series.items():
        assert [lv[0] for lv in points] == loads, name
    # Contracting arrivals (smaller load factor) raises mean response time
    # for the field as a whole.
    by_load = {
        load: np.mean([c.mean_response for c in panel.cells if c.load_factor == load])
        for load in loads
    }
    assert by_load[loads[-1]] > by_load[loads[0]]
    return panel


def test_fig07a_all_to_all(run_once, scale):
    _panel(run_once, scale, "all-to-all")


def test_fig07b_n_body(run_once, scale):
    panel = _panel(run_once, scale, "n-body")
    # Robust n-body shape: curve strategies with Best Fit beat Gen-Alg on
    # service quality (Gen-Alg scatters the virtual ring; Section 4.1's
    # ordering puts it last).
    stretch = {c.allocator: c.mean_stretch for c in panel.cells if c.load_factor == 1.0}
    assert stretch["hilbert+bf"] < stretch["gen-alg"]


def test_fig07c_random(run_once, scale):
    _panel(run_once, scale, "random")
