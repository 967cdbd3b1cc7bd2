"""Campaign expansion: cross-product, filters, overrides, dedup, digests."""

import pytest

from repro.campaign import CampaignError, cell_digest, expand, loads_campaign
from repro.trace.store import TraceStore

BASE = """
[campaign]
name = "exp"

[defaults]
seed = 3
n_jobs = 10
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.5]
allocator = ["hilbert+bf", "mc"]
"""


def test_cross_product_order_and_coords():
    expansion = expand(loads_campaign(BASE))
    assert len(expansion.cells) == 4
    # axis declaration order: load outer, allocator inner
    assert [(c.coords["load"], c.coords["allocator"]) for c in expansion.cells] == [
        (1.0, "hilbert+bf"),
        (1.0, "mc"),
        (0.5, "hilbert+bf"),
        (0.5, "mc"),
    ]
    spec = expansion.cells[0].spec
    assert spec.mesh_shape == (8, 8) and not spec.torus
    assert spec.n_jobs == 10 and spec.seed == 3
    assert expansion.cells[0].index == 0
    assert expansion.digest and len(expansion.digest) == 64


def test_exclude_filters_cells():
    expansion = expand(
        loads_campaign(BASE + '\n[[exclude]]\nallocator = "mc"\nload = 0.5\n')
    )
    assert len(expansion.cells) == 3
    assert expansion.n_excluded == 1
    assert not expansion.select(allocator="mc", load=0.5)


def test_include_keeps_only_matches():
    expansion = expand(
        loads_campaign(BASE + '\n[[include]]\nallocator = ["hilbert+bf"]\n')
    )
    assert len(expansion.cells) == 2
    assert {c.coords["allocator"] for c in expansion.cells} == {"hilbert+bf"}


def test_override_patches_settings():
    expansion = expand(
        loads_campaign(
            BASE + "\n[[override]]\nwhen = { load = 0.5 }\nset = { n_jobs = 25 }\n"
        )
    )
    by_load = {c.coords["load"]: c.spec.n_jobs for c in expansion.cells}
    assert by_load == {1.0: 10, 0.5: 25}


def test_duplicate_cells_dedupe_by_spec_digest():
    text = BASE.replace(
        'allocator = ["hilbert+bf", "mc"]',
        'allocator = ["hilbert+bf", "mc", "hilbert+bf"]',
    ).replace('mesh = ["8x8"]', 'mesh = ["8x8", {shape = [8, 8]}]')
    expansion = expand(loads_campaign(text))
    # 2 meshes x 2 loads x 3 allocators = 12 raw, but the second mesh and
    # the repeated allocator are spec-identical -> 4 unique cells
    assert expansion.n_raw == 12
    assert expansion.n_deduped == 8
    assert len(expansion.cells) == 4
    assert len({c.digest for c in expansion.cells}) == 4


#: Cell digests of the mini-SWF cells below, recorded when specs could
#: still carry their trace rows inline (both forms digested alike then).
MINI_SWF_CELL_DIGESTS = [
    "b5aa4030fe02bca9c773d87fca26c4fd1a2c68263621d836719500f3f98d7320",
    "4959c9b55953ee8a26fbb9355a8ec25321c064b736631c318127e95f5a06286e",
    "2a87de0d0021341340591cf5393a09debae7c9aadff3bc95b79d35a077a390ef",
    "20ecaa5b2d7da236998117f2c1d639bbca0cd210fdd09079f5d9a1264040686d",
]

MINI_SWF = (
    BASE
    + '\nworkload = [{kind = "swf", path = "bundled:sdsc-mini", n_jobs = 8, '
    "time_scale = 0.01, max_size = 64}]\n"
)


def test_cell_digest_pins_the_mini_swf_cells(tmp_path):
    expansion = expand(loads_campaign(MINI_SWF), store=TraceStore(tmp_path / "traces"))
    assert [c.digest for c in expansion.cells] == MINI_SWF_CELL_DIGESTS
    assert [cell_digest(c.spec) for c in expansion.cells] == MINI_SWF_CELL_DIGESTS
    assert expansion.digest == (
        "e57280123c7724914cda58276a7ea6121696ac1352d98ec7c68b83f5d918beb4"
    )


def test_cell_digest_is_defined_once():
    import repro.runner
    from repro.runner import spec

    assert cell_digest is spec.cell_digest is repro.runner.cell_digest


def test_swf_source_needs_a_store():
    with pytest.raises(CampaignError, match="'swf:bundled:sdsc-mini'.*given none"):
        expand(loads_campaign(MINI_SWF))


@pytest.mark.parametrize(
    "setting, message",
    [
        ("seed = -1", "seed must be >= 0"),
        ("runtime_scale = 0.0", "runtime_scale must be positive"),
        ("runtime_scale = nan", "runtime_scale must be positive"),
    ],
)
def test_spec_that_could_only_fail_in_its_cell_rejected(setting, message):
    key = setting.split(" = ")[0]
    text = "\n".join(
        setting if line.startswith(f"{key} = ") else line for line in BASE.splitlines()
    )
    with pytest.raises(CampaignError, match=rf"cell \{{.*\}}: {message}"):
        expand(loads_campaign(text))


def test_2d_only_allocator_on_3d_mesh_rejected():
    text = BASE.replace('mesh = ["8x8"]', 'mesh = ["4x4x4t"]')
    with pytest.raises(CampaignError, match="'mc' cannot place on the 3-D mesh '4x4x4t'"):
        expand(loads_campaign(text))


def test_3d_rejection_mentions_exclude_remedy():
    text = BASE.replace('mesh = ["8x8"]', 'mesh = ["8x8", "4x4x4t"]')
    with pytest.raises(CampaignError, match=r"\[\[exclude\]\]"):
        expand(loads_campaign(text))
    # ...and the suggested exclude indeed fixes it
    fixed = text + '\n[[exclude]]\nmesh = "4x4x4t"\nallocator = "mc"\n'
    expansion = expand(loads_campaign(fixed))
    assert len(expansion.cells) == 6


def test_synthetic_without_n_jobs_rejected():
    text = BASE.replace("n_jobs = 10", "n_jobs = 0")
    with pytest.raises(CampaignError, match="n_jobs >= 1"):
        expand(loads_campaign(text))


def test_all_cells_excluded_is_an_error():
    with pytest.raises(CampaignError, match="zero cells"):
        expand(loads_campaign(BASE + '\n[[exclude]]\nmesh = "8x8"\n'))


def test_unknown_bundled_fixture_rejected():
    text = BASE + '\nworkload = [{kind = "swf", path = "bundled:nope"}]\n'
    with pytest.raises(CampaignError, match="bundled SWF fixture 'nope'"):
        expand(loads_campaign(text))


def test_ref_source_missing_from_store_rejected(tmp_path):
    digest = "ab" * 32
    text = BASE + f'\nworkload = [{{kind = "ref", digest = "{digest}"}}]\n'
    with pytest.raises(CampaignError, match="not in the workload store"):
        expand(loads_campaign(text), store=TraceStore(tmp_path / "traces"))


def test_ref_source_needs_a_cache_to_run(tmp_path, monkeypatch):
    """A cache-less run has no workload store to hydrate a ref from.  It
    must refuse at expansion rather than read the default store under
    $REPRO_CACHE_DIR, which the caller never chose -- even when that
    store happens to hold the trace."""
    from repro.campaign import run_campaign
    from repro.trace.store import default_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
    digest = default_store().put([(0, 0.0, 4, 5.0), (1, 2.0, 8, 3.0)])
    text = BASE + f'\nworkload = [{{kind = "ref", digest = "{digest}"}}]\n'
    with pytest.raises(CampaignError, match="a ref workload needs a cache"):
        run_campaign(loads_campaign(text))


def test_ref_source_round_trips_through_store(tmp_path):
    store = TraceStore(tmp_path / "traces")
    digest = store.put([(0, 0.0, 4, 5.0), (1, 2.0, 8, 3.0)])
    text = BASE + f'\nworkload = [{{kind = "ref", digest = "{digest}"}}]\n'
    expansion = expand(loads_campaign(text), store=store)
    assert all(c.spec.trace_ref == digest for c in expansion.cells)
    assert expansion.cells[0].spec.build_jobs(store)[0].size == 4
