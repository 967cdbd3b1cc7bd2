"""Tests for the campaign CLI (python -m repro.campaign)."""

import pytest

from repro.campaign.__main__ import main, resolve_campaign_path

CAMPAIGN = """
[campaign]
name = "clitest"

[defaults]
seed = 3
n_jobs = 8
runtime_scale = 0.01

[axes]
mesh = ["8x8"]
pattern = ["ring"]
load = [1.0, 0.5]
allocator = ["hilbert+bf", "s-curve"]
"""


@pytest.fixture
def campaign_file(tmp_path):
    path = tmp_path / "clitest.toml"
    path.write_text(CAMPAIGN)
    return path


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestResolve:
    def test_path_wins(self, campaign_file):
        assert resolve_campaign_path(str(campaign_file)) == campaign_file

    def test_bundled_name(self):
        assert resolve_campaign_path("fig07").name == "fig07.toml"

    def test_unknown_errors_with_inventory(self):
        with pytest.raises(FileNotFoundError, match="figswf"):
            resolve_campaign_path("not-a-campaign")


class TestExpand:
    def test_prints_cell_table(self, campaign_file, cache_dir, capsys):
        assert main(["expand", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "hilbert+bf" in out and "s-curve" in out
        assert "pending" in out

    def test_bad_campaign_is_graceful(self, tmp_path, cache_dir, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(CAMPAIGN.replace('"ring"', '"gossip"'))
        assert main(["expand", str(bad), "--cache-dir", cache_dir]) == 2
        assert "gossip" in capsys.readouterr().err


class TestRunStatusReport:
    def test_cold_warm_cycle(self, campaign_file, cache_dir, capsys):
        assert main(["run", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 from cache, 4 computed" in out
        assert "misses=4" in out

        assert main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "4 from cache, 0 computed" in out
        assert "misses=0" in out

    def test_limit_then_status(self, campaign_file, cache_dir, capsys):
        assert main(
            ["run", str(campaign_file), "--cache-dir", cache_dir, "--limit", "3", "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["status", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "3/4 cells done" in out
        assert "1 pending" in out
        assert "next pending" in out
        assert "run history" in out

    def test_progress_lines(self, campaign_file, cache_dir, capsys):
        assert main(["run", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "[4/4]" in out

    def test_report_groups_by_axis(self, campaign_file, cache_dir, capsys):
        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(["report", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "report over 4 completed cells" in out
        assert "mesh = 8x8" in out
        assert "load 1" in out and "load 0.5" in out

        assert main(
            [
                "report", str(campaign_file), "--cache-dir", cache_dir,
                "--group-by", "allocator", "--cols", "load", "--metric", "mean_wait",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "allocator = hilbert+bf" in out and "mean_wait" in out

    def test_report_on_empty_cache_notes_pending(self, campaign_file, cache_dir, capsys):
        assert main(["report", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 completed cells" in out and "4 pending" in out

    def test_report_rejects_unknown_axis(self, campaign_file, cache_dir, capsys):
        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir, "--group-by", "nope"]
        ) == 2
        assert "cannot group by" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, campaign_file, cache_dir, capsys):
        assert main(["run", str(campaign_file), "--cache-dir", cache_dir, "--jobs", "0"]) == 2


class TestTierFlag:
    def test_run_reports_tier_decision(self, campaign_file, cache_dir, capsys):
        assert main(
            ["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet",
             "--tier", "inline"]
        ) == 0
        out = capsys.readouterr().out
        assert "[tier] inline" in out

    def test_file_tier_key_is_unknown(self, tmp_path, cache_dir, capsys):
        """The execution tier is a run-time choice (``--tier``), not part
        of a campaign file: even a valid tier name is an unknown key."""
        path = tmp_path / "tiered.toml"
        path.write_text(CAMPAIGN.replace(
            'name = "clitest"', 'name = "clitest"\ntier = "inline"'
        ))
        assert main(["run", str(path), "--cache-dir", cache_dir, "--quiet"]) == 2
        assert "unknown [campaign] keys ['tier']" in capsys.readouterr().err


class TestReportExport:
    def test_json_export_round_trips(self, campaign_file, cache_dir, capsys):
        import json

        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir,
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "clitest"
        assert payload["completed"] == 4 and payload["pending"] == 0
        assert payload["axes"] == ["mesh", "pattern", "load", "allocator"]
        assert len(payload["cells"]) == 4
        cell = payload["cells"][0]
        assert set(cell) == {"mesh", "pattern", "load", "allocator", "mean_response"}
        assert isinstance(cell["mean_response"], float)

    def test_csv_export_has_header_and_rows(self, campaign_file, cache_dir, capsys):
        import csv
        import io

        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir,
             "--format", "csv", "--metric", "mean_wait"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        assert set(rows[0]) == {"mesh", "pattern", "load", "allocator", "mean_wait"}

    def test_json_export_before_run_reports_pending(self, campaign_file, cache_dir, capsys):
        import json

        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir,
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 0 and payload["pending"] == 4

    def test_export_rejects_table_shaping_flags(self, campaign_file, cache_dir, capsys):
        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir,
             "--format", "csv", "--group-by", "mesh"]
        ) == 2
        err = capsys.readouterr().err
        assert "--group-by" in err and "table format" in err


class TestPrune:
    def test_dry_run_then_prune_retires_artifacts_and_manifest(
        self, campaign_file, cache_dir, capsys
    ):
        from pathlib import Path

        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        artifacts = list(Path(cache_dir).glob("*.json.gz"))
        assert len(artifacts) == 4

        assert main(
            ["prune", str(campaign_file), "--cache-dir", cache_dir, "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 4 artifacts" in out
        assert all(p.is_file() for p in artifacts)

        assert main(["prune", str(campaign_file), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 4 artifacts" in out and "manifest" in out
        assert not any(p.is_file() for p in artifacts)
        assert list(Path(cache_dir).glob("campaigns/*.json")) == []

    def test_prune_leaves_other_campaigns_alone(self, tmp_path, cache_dir, capsys):
        from pathlib import Path

        other = tmp_path / "other.toml"
        other.write_text(
            CAMPAIGN.replace('name = "clitest"', 'name = "other"').replace(
                "load = [1.0, 0.5]", "load = [0.9]"
            )
        )
        mine = tmp_path / "clitest.toml"
        mine.write_text(CAMPAIGN)
        main(["run", str(mine), "--cache-dir", cache_dir, "--quiet"])
        main(["run", str(other), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        total = len(list(Path(cache_dir).glob("*.json.gz")))
        assert total == 6  # 4 + 2

        assert main(["prune", str(mine), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert len(list(Path(cache_dir).glob("*.json.gz"))) == 2
        assert len(list(Path(cache_dir).glob("campaigns/*.json"))) == 1

class TestReportAxisDefaults:
    def test_group_by_load_slides_the_cols_default(self, campaign_file, cache_dir, capsys):
        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(
            ["report", str(campaign_file), "--cache-dir", cache_dir, "--group-by", "load"]
        ) == 0
        out = capsys.readouterr().out
        assert "load = 1" in out and "load = 0.5" in out

    def test_group_by_allocator_defaults_still_work(self, campaign_file, cache_dir, capsys):
        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(
            [
                "report", str(campaign_file), "--cache-dir", cache_dir,
                "--group-by", "allocator",
            ]
        ) == 0
        assert "allocator = s-curve" in capsys.readouterr().out


class TestBadInputsExitCleanly:
    def test_unknown_metric_is_a_clean_error(self, campaign_file, cache_dir, capsys):
        main(["run", str(campaign_file), "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(
            [
                "report", str(campaign_file), "--cache-dir", cache_dir,
                "--metric", "mean_respons",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown metric 'mean_respons'" in err and "mean_response" in err
