"""Campaign-file loading and validation."""

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    MeshAxis,
    TraceSource,
    load_campaign,
    loads_campaign,
    parse_mesh,
)
from repro.experiments.config import MEDIUM

MINIMAL_TOML = """
[campaign]
name = "mini"

[defaults]
seed = 3
n_jobs = 10
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.5]
allocator = ["hilbert+bf"]
"""


class TestParseMesh:
    def test_string_forms(self):
        assert parse_mesh("16x22") == MeshAxis((16, 22), torus=False)
        assert parse_mesh("8x8x8t") == MeshAxis((8, 8, 8), torus=True)
        assert parse_mesh("16X8x4T").shape == (16, 8, 4)
        assert parse_mesh("16x8x4t").label == "16x8x4t"

    def test_table_form(self):
        assert parse_mesh({"shape": [4, 4], "torus": True}) == MeshAxis((4, 4), True)

    @pytest.mark.parametrize(
        "bad", ["16", "ax b", "0x4", "2x2x2x2", {"shape": [4]}, {"torus": True}, 7]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(CampaignError, match="mesh"):
            parse_mesh(bad)


class TestLoad:
    def test_minimal_toml(self):
        campaign = loads_campaign(MINIMAL_TOML)
        assert campaign.name == "mini"
        assert list(campaign.axes) == ["mesh", "pattern", "load", "allocator"]
        assert campaign.axes["mesh"] == [MeshAxis((8, 8))]
        assert campaign.defaults["n_jobs"] == 10

    def test_json_equivalent(self):
        json_text = """
        {"campaign": {"name": "mini"},
         "defaults": {"seed": 3, "n_jobs": 10, "runtime_scale": 0.01},
         "axes": {"mesh": ["8x8"], "pattern": ["ring"],
                  "load": [1.0, 0.5], "allocator": ["hilbert+bf"]}}
        """
        assert loads_campaign(json_text, fmt="json").axes == loads_campaign(
            MINIMAL_TOML
        ).axes

    def test_missing_file_names_bundled(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="fig07"):
            load_campaign(tmp_path / "nope.toml")

    def test_bad_toml_is_campaign_error(self):
        with pytest.raises(CampaignError, match="parse"):
            loads_campaign("this is [not toml")


class TestValidation:
    def _campaign(self, **patches) -> Campaign:
        campaign = loads_campaign(MINIMAL_TOML)
        for key, value in patches.items():
            setattr(campaign, key, value)
        return campaign

    def test_unknown_pattern_names_offending_value(self):
        campaign = self._campaign()
        campaign.axes["pattern"] = ["ring", "gossip"]
        with pytest.raises(CampaignError, match="'gossip' in axis 'pattern'"):
            campaign.validate()

    def test_unknown_allocator_names_offending_value(self):
        campaign = self._campaign()
        campaign.axes["allocator"] = ["best-possible"]
        with pytest.raises(CampaignError, match="'best-possible' in axis 'allocator'"):
            campaign.validate()

    def test_empty_axis_rejected(self):
        campaign = self._campaign()
        campaign.axes["load"] = []
        with pytest.raises(CampaignError, match="'load' must be a non-empty list"):
            campaign.validate()

    def test_missing_required_axis(self):
        campaign = self._campaign()
        del campaign.axes["allocator"]
        with pytest.raises(CampaignError, match="must declare the 'allocator' axis"):
            campaign.validate()

    def test_unknown_axis_rejected(self):
        campaign = self._campaign()
        campaign.axes["fanciness"] = [1]
        with pytest.raises(CampaignError, match="unknown axis 'fanciness'"):
            campaign.validate()

    def test_nonpositive_load_rejected(self):
        campaign = self._campaign()
        campaign.axes["load"] = [1.0, 0.0]
        with pytest.raises(CampaignError, match="load"):
            campaign.validate()

    def test_bad_filter_key_rejected(self):
        campaign = self._campaign(exclude=[{"allocaotr": "mc"}])
        with pytest.raises(CampaignError, match="'allocaotr' is not an axis"):
            campaign.validate()

    def test_unknown_defaults_key_rejected(self):
        campaign = self._campaign(defaults={"seed": 1, "n_job": 5})
        with pytest.raises(CampaignError, match="'n_job'"):
            campaign.validate()


class TestTraceSource:
    def test_ref_needs_digest(self):
        with pytest.raises(CampaignError, match="64-char"):
            loads_campaign(
                MINIMAL_TOML + '\nworkload = [{kind = "ref", digest = "abc"}]\n'
            )

    def test_swf_needs_path(self):
        with pytest.raises(CampaignError, match="need a 'path'"):
            loads_campaign(MINIMAL_TOML + '\nworkload = [{kind = "swf"}]\n')

    def test_labels(self):
        assert TraceSource(kind="synthetic").label == "synthetic"
        assert TraceSource(kind="swf", path="x.swf").label == "swf:x.swf"
        assert TraceSource(kind="ref", digest="ab" * 32).label.startswith("ref:abab")


class TestScaled:
    def test_identity_at_declared_scale(self):
        campaign = loads_campaign(MINIMAL_TOML)
        # the file declares small-style axes; scaling to the same values
        # must not change the expansion-relevant content
        from repro.experiments.config import Scale

        scale = Scale(
            name="same",
            n_jobs=10,
            runtime_scale=0.01,
            loads=(1.0, 0.5),
            fig1_repetitions=1,
            fig1_samples=1,
            fig9_min_samples=1,
            seed=3,
        )
        scaled = campaign.scaled(scale)
        assert scaled.axes == campaign.axes
        assert scaled.defaults["seed"] == 3

    def test_rescales_loads_seed_and_workloads(self):
        campaign = loads_campaign(
            MINIMAL_TOML
            + '\nworkload = ["synthetic", {kind = "swf", path = "bundled:sdsc-mini", n_jobs = 10, time_scale = 0.01}]\n'
        )
        scaled = campaign.scaled(MEDIUM, seed=42)
        assert scaled.axes["load"] == list(MEDIUM.loads)
        assert scaled.defaults["seed"] == 42
        assert scaled.defaults["n_jobs"] == MEDIUM.n_jobs
        swf = [s for s in scaled.axes["workload"] if s.kind == "swf"][0]
        assert swf.n_jobs == MEDIUM.n_jobs
        assert swf.time_scale == MEDIUM.runtime_scale
        synth = [s for s in scaled.axes["workload"] if s.kind == "synthetic"][0]
        assert synth == TraceSource(kind="synthetic")


class TestAmbiguousWorkloads:
    def test_same_path_different_preparation_rejected(self):
        text = MINIMAL_TOML + (
            "\nworkload = ["
            '{kind = "swf", path = "bundled:sdsc-mini", n_jobs = 10},'
            '{kind = "swf", path = "bundled:sdsc-mini", n_jobs = 50},'
            "]\n"
        )
        with pytest.raises(CampaignError, match="ambiguous workload"):
            loads_campaign(text)

    def test_identical_duplicates_are_allowed(self):
        text = MINIMAL_TOML + '\nworkload = ["synthetic", "synthetic"]\n'
        assert loads_campaign(text)  # deduped later by cell digest


class TestOverrideAxisCollision:
    def test_override_of_a_declared_axis_rejected(self):
        text = MINIMAL_TOML + (
            "\nseed = [1, 2]\n"  # appended into [axes]
            "\n[[override]]\nwhen = { load = 1.0 }\nset = { seed = 99 }\n"
        )
        with pytest.raises(CampaignError, match="collides with the declared 'seed' axis"):
            loads_campaign(text)


class TestProgrammaticCampaigns:
    def _axes(self):
        return {
            "mesh": ["8x8"],  # shorthand, not MeshAxis
            "pattern": ["ring"],
            "load": [1.0],
            "allocator": ["hilbert+bf"],
            "workload": ["synthetic"],  # shorthand, not TraceSource
        }

    def test_validate_normalises_shorthand_values(self):
        campaign = Campaign(name="prog", axes=self._axes(), defaults={"n_jobs": 5})
        campaign.validate()
        assert campaign.axes["mesh"] == [MeshAxis((8, 8))]
        assert campaign.axes["workload"] == [TraceSource(kind="synthetic")]

    def test_expand_and_scaled_work_on_programmatic_campaigns(self):
        from repro.campaign import expand
        from repro.experiments.config import SMALL

        campaign = Campaign(name="prog", axes=self._axes(), defaults={"n_jobs": 5})
        expansion = expand(campaign)
        assert len(expansion.cells) == 1
        axes = {**self._axes(), "load": [1.0, 0.5]}  # scaled() keeps a single load
        scaled = Campaign(name="prog2", axes=axes, defaults={"n_jobs": 5}).scaled(SMALL)
        assert scaled.axes["load"] == list(SMALL.loads)
