"""Harness tests: experiment matrix consistency and artifact rendering."""

import pytest

from repro.analysis import AnalysisConfig
from repro.harness import (
    run_figure1,
    run_figure2,
    run_suite,
    run_table1,
    run_table2,
)
from repro.harness.experiments import BASELINE, ISAS, PROFILES, run_config
from repro.workloads.stream import Stream, StreamParams


@pytest.fixture(scope="module")
def tiny_suite():
    return run_suite(
        scale=0.02,
        workloads=("stream", "minisweep"),
        windowed=True,
        window_sizes=(4, 16, 64),
    )


class TestSuite:
    def test_full_matrix_present(self, tiny_suite):
        for name in tiny_suite.workloads:
            for isa in ISAS:
                for profile in PROFILES:
                    config = tiny_suite.get(name, isa, profile)
                    assert config.path_length > 0
                    assert config.cp.critical_path >= 1

    def test_internal_consistency(self, tiny_suite):
        """ILP = path/CP and runtime = CP/clock, by construction."""
        for config in tiny_suite.configs.values():
            assert config.ilp == pytest.approx(
                config.path_length / config.cp.critical_path
            )
            assert config.runtime_ms(2.0) == pytest.approx(
                config.cp.critical_path / 2e9 * 1e3
            )

    def test_scaled_cp_at_least_plain(self, tiny_suite):
        for config in tiny_suite.configs.values():
            assert config.scaled_cp.critical_path >= config.cp.critical_path

    def test_cp_never_exceeds_path(self, tiny_suite):
        for config in tiny_suite.configs.values():
            assert config.cp.critical_path <= config.path_length

    def test_windowed_only_on_gcc12(self, tiny_suite):
        for (name, isa, profile), config in tiny_suite.configs.items():
            if profile == "gcc12":
                assert config.windowed is not None
            else:
                assert config.windowed is None

    def test_region_counts_sum_to_total(self, tiny_suite):
        for config in tiny_suite.configs.values():
            assert sum(config.path.per_region.values()) == config.path.total


class TestFigure1:
    def test_baseline_normalizes_to_one(self, tiny_suite):
        figure = run_figure1(suite=tiny_suite)
        for name, per_config in figure.normalized.items():
            baseline_total = sum(per_config[BASELINE].values())
            assert baseline_total == pytest.approx(1.0)

    def test_render_mentions_kernels(self, tiny_suite):
        text = run_figure1(suite=tiny_suite).render()
        assert "copy" in text and "triad" in text
        assert "GCC 9.2 AArch64" in text


class TestTables:
    def test_table1_rows(self, tiny_suite):
        table = run_table1(suite=tiny_suite)
        rows = table.rows_for("stream")
        metrics = [row[0] for row in rows]
        assert metrics == ["Path Length", "CP", "ILP", "2GHz Run time (ms)"]
        # 4 configurations per row
        assert all(len(row) == 5 for row in rows)

    def test_table2_uses_scaled(self, tiny_suite):
        t1 = run_table1(suite=tiny_suite).rows_for("stream")
        t2 = run_table2(suite=tiny_suite).rows_for("stream")
        assert t2[1][1] >= t1[1][1]  # scaled CP >= CP

    def test_render_smoke(self, tiny_suite):
        assert "Table 1" in run_table1(suite=tiny_suite).render()
        assert "Table 2" in run_table2(suite=tiny_suite).render()


class TestFigure2:
    def test_series_monotone_window_sizes(self, tiny_suite):
        figure = run_figure2(suite=tiny_suite)
        for name, per_isa in figure.series.items():
            for isa, points in per_isa.items():
                windows = [w for w, _v in points]
                assert windows == sorted(windows)
                for _w, value in points:
                    assert value >= 0.9  # ILP can't drop far below 1

    def test_window_averages_text(self, tiny_suite):
        text = run_figure2(suite=tiny_suite).window_averages_text()
        assert "stream-rv64" in text or "stream-aarch64" in text

    def test_mean_ilp_bounded_by_window(self, tiny_suite):
        figure = run_figure2(suite=tiny_suite)
        for per_isa in figure.series.values():
            for points in per_isa.values():
                for window, ilp in points:
                    assert ilp <= window


class TestRunConfig:
    def test_custom_window_slide(self):
        wl = Stream(StreamParams(n=32, ntimes=1))
        config = run_config(wl, "rv64", "gcc12",
                            analysis=AnalysisConfig(windowed=True,
                                                    window_sizes=(8,),
                                                    slide_fraction=1.0))
        assert config.windowed[8].count >= 1

    def test_custom_model(self):
        from repro.sim.config import load_core_model
        wl = Stream(StreamParams(n=32, ntimes=1))
        ideal = {"rv64": "ideal", "aarch64": "ideal"}
        config = run_config(wl, "rv64", "gcc12", models=ideal)
        assert config.scaled_cp.critical_path == config.cp.critical_path


class TestCli:
    def test_cli_writes_artifacts(self, tmp_path):
        from repro.harness.cli import main
        rc = main([
            "run", "--scale", "0.02", "--workloads", "stream",
            "--windows", "4,16", "--out", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        for fname in ("kernelCounts.txt", "basicCPResult.txt",
                      "scaledCPResult.txt", "windowAverages.txt"):
            assert (tmp_path / fname).exists(), fname
            assert (tmp_path / fname).read_text().strip()

    def test_cli_skip_windowed(self, tmp_path, capsys):
        from repro.harness.cli import main
        rc = main([
            "run", "--scale", "0.02", "--workloads", "minisweep",
            "--skip-windowed", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 2" not in out


class TestFutureCores:
    def test_run_future_cores(self):
        from repro.harness import run_future_cores
        result = run_future_cores(
            0.02, workloads=("minisweep",), rob_sizes=(8, 64)
        )
        per_isa = result.cycles["minisweep"]
        for isa in ("aarch64", "rv64"):
            values = per_isa[isa]
            # OoO with any ROB beats the dual-issue in-order core
            assert values[64] <= values[8] <= values["inorder"]
        text = result.render()
        assert "Future work" in text and "in-order" in text
