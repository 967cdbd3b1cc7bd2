"""Tests for repro.analysis.tables."""

from repro.analysis.tables import format_mesh_comparison, format_table


class TestFormatMeshComparison:
    @staticmethod
    def _sweep(mesh_shape, torus, value):
        from repro.experiments.sweep import SweepResult
        from repro.sched.stats import RunSummary

        cells = [
            RunSummary(
                allocator="hilbert",
                pattern="ring",
                mesh_shape=mesh_shape,
                load_factor=load,
                n_jobs=5,
                mean_response=value * load,
                median_response=value,
                mean_wait=0.0,
                mean_duration=value,
                mean_stretch=1.0,
                fraction_contiguous=1.0,
                mean_components=1.0,
                makespan=value,
            )
            for load in (1.0, 0.5)
        ]
        return [SweepResult(mesh_shape=mesh_shape, pattern="ring",
                            cells=cells, torus=torus)]

    def test_aligned_cells_and_ratio(self):
        base = self._sweep((16, 16), False, 200.0)
        other = self._sweep((8, 8, 8), True, 100.0)
        out = format_mesh_comparison(base, other)
        assert "8x8x8 torus vs 16x16 mesh" in out
        assert "ring pattern" in out
        lines = out.splitlines()
        assert "ratio" in lines[1]
        assert "0.50" in out  # 100 / 200 at every shared load

    def test_disjoint_patterns_yield_empty(self):
        base = self._sweep((16, 16), False, 200.0)
        other = self._sweep((8, 8, 8), True, 100.0)
        other[0].pattern = "n-body"
        assert format_mesh_comparison(base, other) == ""


class TestFormatTable:
    def test_basic(self):
        out = format_table(
            [{"name": "a", "value": 1.234}, {"name": "bb", "value": 10.0}]
        )
        lines = out.splitlines()
        assert lines[0].split() == ["name", "value"]
        assert "1.23" in out and "10.00" in out

    def test_column_selection_and_order(self):
        out = format_table(
            [{"a": 1, "b": 2, "c": 3}], columns=["c", "a"]
        )
        header = out.splitlines()[0].split()
        assert header == ["c", "a"]
        assert "2" not in out.splitlines()[2]

    def test_title(self):
        out = format_table([{"x": 1}], title="My table")
        assert out.startswith("My table\n")

    def test_empty(self):
        assert "(no rows)" in format_table([])
        assert format_table([], title="T").startswith("T")

    def test_missing_keys_render_empty(self):
        out = format_table([{"a": 1}, {"a": 2, "b": 5}], columns=["a", "b"])
        assert "5" in out

    def test_bool_rendering(self):
        out = format_table([{"flag": True}, {"flag": False}])
        assert "yes" in out and "no" in out

    def test_float_fmt(self):
        out = format_table([{"v": 0.123456}], float_fmt=".4f")
        assert "0.1235" in out

    def test_alignment(self):
        out = format_table(
            [{"name": "x", "v": 1.0}, {"name": "longer", "v": 100.0}]
        )
        lines = out.splitlines()
        # all rows equal width
        assert len({len(line) for line in lines[2:]}) == 1


class TestFormatPivot:
    ROWS = [
        {"allocator": "mc", "load": 1.0, "seed": 1, "mean_response": 10.0},
        {"allocator": "mc", "load": 1.0, "seed": 2, "mean_response": 14.0},
        {"allocator": "mc", "load": 0.5, "seed": 1, "mean_response": 6.0},
        {"allocator": "hilbert", "load": 1.0, "seed": 1, "mean_response": 8.0},
    ]

    def test_mean_aggregation_over_hidden_axes(self):
        from repro.analysis.tables import format_pivot

        out = format_pivot(
            self.ROWS, row_key="allocator", col_key="load",
            value_key="mean_response", float_fmt=".1f",
        )
        lines = out.splitlines()
        assert lines[0].split() == ["allocator", "load", "1", "load", "0.5"]
        mc = next(line for line in lines if line.startswith("mc"))
        assert "12.0" in mc  # mean over the two seeds
        assert "6.0" in mc
        hilbert = next(line for line in lines if line.startswith("hilbert"))
        assert "8.0" in hilbert

    def test_row_and_column_order_follow_first_appearance(self):
        from repro.analysis.tables import format_pivot

        out = format_pivot(
            self.ROWS, row_key="allocator", col_key="load", value_key="mean_response"
        )
        body = out.splitlines()[2:]
        assert [line.split()[0] for line in body] == ["mc", "hilbert"]

    def test_missing_cells_render_empty(self):
        from repro.analysis.tables import format_pivot

        out = format_pivot(
            self.ROWS[2:], row_key="allocator", col_key="load",
            value_key="mean_response", float_fmt=".1f",
        )
        # hilbert has no load-0.5 cell: the row still renders
        assert "hilbert" in out

    def test_agg_variants_and_errors(self):
        import pytest

        from repro.analysis.tables import format_pivot

        out = format_pivot(
            self.ROWS, row_key="allocator", col_key="load",
            value_key="mean_response", agg="count", float_fmt="g",
        )
        mc = next(line for line in out.splitlines() if line.startswith("mc"))
        assert mc.split()[1] == "2"
        with pytest.raises(ValueError, match="unknown agg"):
            format_pivot(self.ROWS, "allocator", "load", "mean_response", agg="median")

    def test_string_columns(self):
        from repro.analysis.tables import format_pivot

        rows = [
            {"pattern": "ring", "mesh": "8x8", "v": 1.0},
            {"pattern": "ring", "mesh": "4x4x4t", "v": 2.0},
        ]
        out = format_pivot(rows, row_key="pattern", col_key="mesh", value_key="v")
        assert "8x8" in out and "4x4x4t" in out
