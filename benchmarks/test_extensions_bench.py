"""Benches for the extension experiments (DESIGN.md section 4).

* the contiguous-allocation baseline (the paper's Section 2 motivation),
* the pattern-dispatching hybrid (the paper's Section 5 proposal).
"""

from repro.campaign import bundled_campaign_path, load_campaign
from repro.experiments import contiguous_baseline, hybrid_workload


def test_contiguous_baseline(run_once, scale):
    result = run_once(contiguous_baseline.run, scale)
    print()
    print(contiguous_baseline.report(result))
    # The paper's claim: contiguity costs utilization/queueing ...
    assert result.contiguous.mean_wait > result.noncontiguous.mean_wait
    # ... while eliminating interjob overlap entirely.
    assert result.contiguous.fraction_contiguous == 1.0
    assert result.contiguous.mean_stretch <= result.noncontiguous.mean_stretch


def test_hybrid_mixed_workload(run_once, scale):
    result = run_once(hybrid_workload.run, scale)
    print()
    print(hybrid_workload.report(result))
    by_name = {c.allocator: c for c in result.cells}
    campaign = load_campaign(bundled_campaign_path(hybrid_workload.CAMPAIGN))
    assert set(by_name) == set(campaign.axes["allocator"])
    # The hybrid must be competitive: top half of the field on response.
    ordered = sorted(result.cells, key=lambda c: c.mean_response)
    rank = [c.allocator for c in ordered].index("hybrid")
    assert rank < len(ordered) / 2
