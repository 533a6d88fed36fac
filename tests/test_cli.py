"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_cluster(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "minotauro-8" in out
        assert "128 total" in out
        assert "calibration:" in out


class TestRun:
    def test_run_kmeans_cpu(self, capsys):
        code = main(["run", "--algorithm", "kmeans", "--grid", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "partial_sum" in out
        assert "makespan" in out

    def test_run_matmul_gpu_with_gantt(self, capsys):
        code = main(
            ["run", "--algorithm", "matmul", "--dataset", "matmul_128mb",
             "--grid", "4", "--gpu", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matmul_func" in out
        assert "Gantt" in out

    def test_run_fma(self, capsys):
        code = main(
            ["run", "--algorithm", "matmul_fma", "--dataset", "matmul_128mb",
             "--grid", "2"]
        )
        assert code == 0
        assert "fma_func" in capsys.readouterr().out

    def test_run_local_storage_locality_policy(self, capsys):
        code = main(
            ["run", "--algorithm", "kmeans", "--grid", "8",
             "--storage", "local", "--policy", "data_locality"]
        )
        assert code == 0


class TestFigures:
    def test_fig6(self, capsys):
        assert main(["figures", "fig6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestAdvise:
    def test_advise_kmeans(self, capsys):
        code = main(
            ["advise", "--algorithm", "kmeans", "--dataset", "kmeans_100mb",
             "--grids", "8,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "Advisor ranking" in out


class TestParser:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestDecompose:
    def test_decompose_kmeans(self, capsys):
        code = main(["decompose", "--algorithm", "kmeans", "--grid", "16",
                     "--gpu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "data movement" in out
        assert "idle" in out

    def test_decompose_matmul_local(self, capsys):
        code = main(["decompose", "--algorithm", "matmul", "--dataset",
                     "matmul_128mb", "--grid", "4", "--storage", "local"])
        assert code == 0
        assert "compute" in capsys.readouterr().out


class TestCsvExport:
    def test_table_render_csv(self):
        from repro.core.report import Table

        table = Table("T", headers=("a", "b"))
        table.add_row(1, "x,y")
        text = table.render_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == '1,"x,y"'


class TestFiguresMore:
    def test_fig1_via_cli(self, capsys):
        assert main(["figures", "fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig9b_via_cli(self, capsys):
        assert main(["figures", "fig9b"]) == 0
        assert "skew" in capsys.readouterr().out

    def test_save_writes_json(self, capsys, tmp_path):
        assert main(["figures", "fig6", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.json").exists()
        assert "saved" in capsys.readouterr().out


class TestLint:
    def test_lint_clean_configuration_exits_zero(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workflow analysis" in out
        assert "minotauro-8" in out

    def test_lint_fig9a_oom_exits_nonzero(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "1",
                     "--clusters", "1000"])
        assert code == 1
        out = capsys.readouterr().out
        assert "WF101" in out
        assert "ERROR" in out

    def test_lint_json_format(self, capsys):
        import json

        code = main(["lint", "--algorithm", "kmeans", "--grid", "1",
                     "--clusters", "1000", "--gpu", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"WF101", "WF102"} <= codes

    def test_lint_gpu_on_cpu_only_preset(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "64",
                     "--gpu", "--preset", "cpu_only"])
        assert code == 1
        assert "WF103" in capsys.readouterr().out

    def test_lint_matmul_smoke(self, capsys):
        code = main(["lint", "--algorithm", "matmul", "--dataset",
                     "matmul_8gb", "--grid", "8"])
        assert code == 0


class TestAdviseMatmul:
    def test_advise_matmul(self, capsys):
        code = main(
            ["advise", "--algorithm", "matmul", "--dataset", "matmul_128mb",
             "--grids", "4,2"]
        )
        assert code == 0
        assert "recommended:" in capsys.readouterr().out
