"""Bench: Fig 8 -- response time vs load on the 16x16 mesh.

Same grid as Fig 7 on the square mesh (320-node jobs dropped).  The
assertions encode the paper's most robust square-mesh observations.
"""

import numpy as np

from repro.campaign import bundled_campaign_path, load_campaign, run_campaign
from repro.experiments import fig08_sweep16x16
from repro.experiments.sweep import PAPER_ALLOCATORS, report_sweep


def _panel(run_once, scale, pattern):
    campaign = load_campaign(bundled_campaign_path(fig08_sweep16x16.CAMPAIGN)).scaled(scale)
    campaign.include = [{"pattern": pattern}]
    crun = run_once(run_campaign, campaign)
    (results,) = crun.sweep_results().values()
    panel = results[0]
    print()
    print(report_sweep(results))
    assert set(panel.series()) == set(PAPER_ALLOCATORS)
    return panel


def test_fig08a_all_to_all(run_once, scale):
    panel = _panel(run_once, scale, "all-to-all")
    stretch = {c.allocator: c.mean_stretch for c in panel.cells if c.load_factor == 1.0}
    # "S-curve always performs poorly" for all-to-all on 16x16: worst
    # service stretch among the curve family.
    curve_family = [v for k, v in stretch.items() if k != "s-curve"]
    assert stretch["s-curve"] >= np.median(list(stretch.values()))


def test_fig08b_n_body(run_once, scale):
    panel = _panel(run_once, scale, "n-body")
    stretch = {c.allocator: c.mean_stretch for c in panel.cells if c.load_factor == 1.0}
    # Paper ordering for n-body: Hilbert+BF at the top, Gen-Alg at the
    # bottom; the curve+BF family beats the shell/centre family on service.
    assert stretch["hilbert+bf"] < stretch["gen-alg"]
    bf_curves = [stretch[k] for k in ("hilbert+bf", "h-indexing+bf")]
    others = [stretch[k] for k in ("mc", "mc1x1", "gen-alg")]
    assert np.mean(bf_curves) < np.mean(others)


def test_fig08c_random(run_once, scale):
    _panel(run_once, scale, "random")
