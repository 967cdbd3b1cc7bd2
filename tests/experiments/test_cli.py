"""Tests for the experiments CLI (python -m repro.experiments)."""

import io

import pytest

from repro.experiments import config
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.runner import default_cache_root


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig1", "fig7", "fig11"):
            assert fig in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2

    def test_runs_cheap_experiment(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "ring subphases: 7" in out

    def test_seed_override(self, capsys):
        assert main(["fig4", "--seed", "3"]) == 0

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "figswf", "hybrid", "contiguous",
        }

    def test_swf_trace_input(self, tiny_scale, tmp_path, capsys):
        """fig7 accepts a real SWF trace file and runs its whole grid:
        3 patterns x 9 allocators at the tiny scale's one load."""
        path = _write_trace(tmp_path / "tiny.swf")
        cache_dir = str(tmp_path / "c")
        assert main(["fig7", "--trace", str(path), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "hilbert+bf" in out
        assert "hits=0 misses=27" in out


@pytest.fixture
def tiny_scale(monkeypatch):
    """Make every --scale resolve to a tiny workload for fast CLI runs."""
    tiny = config.Scale(
        name="small",
        n_jobs=12,
        runtime_scale=0.01,
        loads=(1.0,),
        fig1_repetitions=1,
        fig1_samples=4,
        fig9_min_samples=2,
        seed=2,
    )
    monkeypatch.setattr(config, "get_scale", lambda name: tiny)
    return tiny


def _report_body(out: str) -> str:
    """CLI output minus timing header and cache-stats lines."""
    return "\n".join(
        line
        for line in out.splitlines()
        if not line.startswith("===") and not line.startswith("[cache]")
    )


class TestEngineFlags:
    def test_jobs_flag_gives_identical_results(self, tiny_scale, capsys):
        assert main(["fig11", "--no-cache", "--jobs", "1"]) == 0
        serial = _report_body(capsys.readouterr().out)
        assert main(["fig11", "--no-cache", "--jobs", "2"]) == 0
        parallel = _report_body(capsys.readouterr().out)
        assert parallel == serial
        assert "Algorithm" in serial

    def test_cache_hits_on_second_run(self, tiny_scale, capsys):
        """The second identical invocation must recompute nothing."""
        assert main(["fig11"]) == 0
        first = capsys.readouterr().out
        assert "hits=0" in first and "misses=12" in first
        assert main(["fig11"]) == 0
        second = capsys.readouterr().out
        assert "hits=12" in second and "misses=0" in second
        assert _report_body(second) == _report_body(first)
        assert len(list(default_cache_root().glob("*.json.gz"))) == 12

    @pytest.mark.parametrize("experiment, n_cells", [("hybrid", 6), ("contiguous", 2)])
    def test_single_load_figures_rerun_from_cache(
        self, experiment, n_cells, tiny_scale, tmp_path, capsys
    ):
        """Like fig11 above: each runs its bundled campaign, and a second
        run computes nothing."""
        cache_dir = str(tmp_path / "c")
        assert main([experiment, "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert f"hits=0 misses={n_cells}" in first
        assert main([experiment, "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert f"hits={n_cells} misses=0" in second
        assert _report_body(second) == _report_body(first)

    def test_no_cache_flag_disables_artifacts(self, tiny_scale, capsys):
        assert main(["fig11", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[cache]" not in out
        assert not default_cache_root().exists()

    def test_cache_dir_flag_overrides_default(self, tiny_scale, capsys, tmp_path):
        custom = tmp_path / "elsewhere"
        assert main(["fig11", "--cache-dir", str(custom)]) == 0
        out = capsys.readouterr().out
        assert f"dir={custom}" in out
        assert len(list(custom.glob("*.json.gz"))) == 12
        assert not default_cache_root().exists()

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["fig11", "--jobs", "0"]) == 2

    def test_cheap_experiments_ignore_engine_flags(self, tiny_scale, capsys):
        assert main(["fig5", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "ring subphases: 7" in out
        assert "[cache]" not in out  # fig5 never touches the engine cache

    def test_fig12_runs_torus_and_comparison(self, tiny_scale, capsys, tmp_path):
        """fig12 produces the torus panel and the 2-D-vs-3-D table over
        its whole grid: 2 machines x 3 patterns x 6 allocators at the
        tiny scale's one load."""
        cache_dir = str(tmp_path / "c")
        assert main(["fig12", "--cache-dir", cache_dir, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "8x8x8 torus" in out
        assert "8x8x8 torus vs 16x16 mesh" in out
        assert "ratio" in out
        assert "misses=36" in out


def _write_trace(path, first_id=1, first_arrival=50.0):
    """A six-job SWF log with 1-based ids and a late first arrival."""
    from repro.sched.job import Job
    from repro.trace.swf import write_swf

    jobs = [
        Job(first_id + i, first_arrival + 100.0 * i, 2 << (i % 3), 30.0 + 10.0 * i)
        for i in range(6)
    ]
    write_swf(jobs, path)
    return path


class TestTraceInput:
    """``--trace`` runs through each figure's bundled campaign."""

    def test_fig7_trace_equals_direct_engine_run(self, tiny_scale, tmp_path, capsys):
        """The campaign's ref workload replays the log exactly as its rows
        handed straight to the engine do."""
        from repro.experiments.sweep import (
            PAPER_ALLOCATORS,
            PAPER_PATTERNS,
            SweepResult,
            report_sweep,
        )
        from repro.runner import ResultCache, run_many, sweep_specs
        from repro.trace.archive import trace_rows
        from repro.trace.swf import read_swf

        path = _write_trace(tmp_path / "late.swf", first_id=1, first_arrival=500.0)
        assert path.read_text().split()[:2] == ["1", "500"]
        jobs = read_swf(path)
        direct = ResultCache(tmp_path / "direct")
        specs = sweep_specs(
            (16, 22),
            PAPER_PATTERNS,
            tiny_scale.loads,
            PAPER_ALLOCATORS,
            seed=tiny_scale.seed,
            trace_ref=direct.traces.put(trace_rows(jobs)),
        )
        cells = run_many(specs, cache=direct)
        per_pattern = len(tiny_scale.loads) * len(PAPER_ALLOCATORS)
        reference = report_sweep(
            [
                SweepResult(
                    mesh_shape=(16, 22),
                    pattern=pattern,
                    cells=[c.summary for c in cells[i * per_pattern : (i + 1) * per_pattern]],
                )
                for i, pattern in enumerate(PAPER_PATTERNS)
            ]
        )
        assert main(["fig7", "--trace", str(path), "--no-cache"]) == 0
        assert _report_body(capsys.readouterr().out).strip() == reference

    def test_fig7_trace_without_cache_leaves_no_root(self, tiny_scale, tmp_path, capsys):
        """``--no-cache`` interns the log into a throwaway root: the run
        succeeds and no default cache root appears."""
        path = _write_trace(tmp_path / "tiny.swf")
        assert main(["fig7", "--trace", str(path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "all-to-all pattern" in out and "hilbert+bf" in out
        assert "[cache]" not in out
        assert not default_cache_root().exists()

    def test_figswf_trace_served_from_default_run(self, tiny_scale, tmp_path, capsys):
        """The bundled fixture given as ``--trace`` is the same grid as a
        default figswf: every cell is a cache hit, the tables agree."""
        from repro.trace.archive import bundled_mini_swf

        cache_dir = str(tmp_path / "c")
        assert main(["figswf", "--cache-dir", cache_dir]) == 0
        default = capsys.readouterr().out
        assert "misses=8" in default
        assert main(
            ["figswf", "--cache-dir", cache_dir, "--trace", str(bundled_mini_swf())]
        ) == 0
        given = capsys.readouterr().out
        assert "hits=8 misses=0" in given
        assert _report_body(given) == _report_body(default)
        assert "parse: " in given

    def test_relative_trace_path_resolves_against_cwd(
        self, tiny_scale, tmp_path, capsys, monkeypatch
    ):
        """Campaign swf paths resolve against the campaign file's
        directory; a ``--trace`` path is the user's, so it resolves
        against the working directory instead."""
        import shutil

        from repro.trace.archive import bundled_mini_swf

        shutil.copy(bundled_mini_swf(), tmp_path / "mini.swf")
        monkeypatch.chdir(tmp_path)
        assert main(["figswf", "--no-cache", "--trace", "mini.swf"]) == 0
        out = capsys.readouterr().out
        assert "parse: " in out and "16x16 mesh" in out
