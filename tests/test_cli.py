"""Tests for the command-line interface."""

import json

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


UNKNOWN_DATASET = (
    "unknown dataset_key 'nope'; known keys: kmeans_100gb, kmeans_100mb, "
    "kmeans_10gb, kmeans_1gb, kmeans_1gb_skew, matmul_128mb, matmul_2gb, "
    "matmul_2gb_skew, matmul_32gb, matmul_8gb"
)


class TestBadArguments:
    """A value a constructor rejects is a usage error: exit 2, one line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param("run --grid 0", "grid dimensions must be positive",
                         id="run-grid"),
            pytest.param("run --clusters 0", "n_clusters must be positive",
                         id="run-clusters"),
            pytest.param("run --grid 4 --checkpoint-every 0",
                         "every_levels must be >= 1", id="run-checkpoint-every"),
            pytest.param("run --grid 4 --max-attempts 0 --recover",
                         "max_attempts must be >= 1", id="run-max-attempts"),
            pytest.param("run --grid 4 --faults {bad",
                         "Expecting property name enclosed in double quotes: "
                         "line 1 column 2 (char 1)", id="run-faults"),
            pytest.param("run --algorithm matmul --dataset matmul_128mb "
                         '--grid 4 --faults {"node_faults":[{"node":64,'
                         '"at_time":1.0}]}',
                         "fault plan kills node 64 but the cluster has 8 "
                         "nodes", id="run-ghost-node"),
            pytest.param("run --grid 4 --faults "
                         '{"stragglers":[{"factor":2.0,"node":9}]}',
                         "fault plan slows node 9 but the cluster has 8 nodes",
                         id="run-straggler-ghost-node"),
            pytest.param("run --grid 4 --faults []",
                         "fault plan must be an object, got []",
                         id="run-faults-not-object"),
            pytest.param("run --grid 4 --faults "
                         '{"node_fault":[{"node":1,"at_time":0}]}',
                         "fault plan has unknown key 'node_fault'",
                         id="run-faults-unknown-key"),
            pytest.param("run --grid 4 --faults "
                         '{"node_faults":[{"node":1,"at_time":0,"bogus":2}]}',
                         "node_faults[0] has unknown key 'bogus'",
                         id="run-faults-unknown-entry-key"),
            pytest.param("run --grid 4 --faults "
                         '{"node_faults":[{"node":1}]}',
                         "node_faults[0] is missing key 'at_time'",
                         id="run-faults-missing-key"),
            pytest.param("run --grid 4 --faults "
                         '{"crash_probability":"x"}',
                         "crash_probability must be a number, got 'x'",
                         id="run-faults-wrong-type"),
            pytest.param("run --grid 4 --faults "
                         '{"task_crashes":[{"task_type":"partial_sum",'
                         '"attempts":5}]}',
                         "task_crashes[0].attempts must be a list, got 5",
                         id="run-faults-wrong-entry-type"),
            pytest.param("run --grid 4 --faults "
                         '{"task_crashes":[{"task_type":"partial_sum",'
                         '"stage":"bogus"}]}',
                         "task_crashes[0].stage must be a stage name, got "
                         "'bogus'", id="run-faults-bad-stage"),
            pytest.param("run --grid 4 --faults "
                         '{"task_crashes":[{"task_id":0,'
                         '"stage":"cpu_gpu_comm"}]}',
                         "a task crash stage must be deserialization, "
                         "serial_fraction, parallel_fraction or "
                         "serialization, got 'cpu_gpu_comm'",
                         id="run-faults-crash-stage-never-ends"),
            pytest.param("run --grid 4 --faults "
                         '{"task_crashes":[{"task_id":100000}]}',
                         "fault plan task_crashes[0] names task 100000 but "
                         "the workflow has 15 tasks",
                         id="run-faults-crash-ghost-task-id"),
            pytest.param("run --grid 4 --faults "
                         '{"gpu_ooms":[{"task_id":15}]}',
                         "fault plan gpu_ooms[0] names task 15 but the "
                         "workflow has 15 tasks",
                         id="run-faults-gpu-oom-ghost-task-id"),
            pytest.param("run --grid 4 --faults "
                         '{"task_crashes":[{"task_type":"partial_sums"}]}',
                         "fault plan task_crashes[0] names task type "
                         "'partial_sums' but the workflow has only merge, "
                         "partial_sum",
                         id="run-faults-crash-ghost-task-type"),
            pytest.param("run --grid 4 --faults "
                         '{"gpu_ooms":[{"task_type":"nope"}]}',
                         "fault plan gpu_ooms[0] names task type 'nope' but "
                         "the workflow has only merge, partial_sum",
                         id="run-faults-gpu-oom-ghost-task-type"),
            pytest.param("run --grid 4 --faults "
                         '{"stragglers":[{"factor":2.0,"task_type":"nope"}]}',
                         "fault plan stragglers[0] names task type 'nope' "
                         "but the workflow has only merge, partial_sum",
                         id="run-faults-straggler-ghost-task-type"),
            pytest.param("run --grid 4 --dataset kmeans_100mb --max-attempts 3 "
                         '--faults {"gpu_ooms":[{"task_type":"partial_sum",'
                         '"attempts":[1,2,3]}]}',
                         "fault plan gpu_ooms[0] names no task this run "
                         "places on a GPU, so it can never fire",
                         id="run-faults-gpu-oom-without-gpu"),
            pytest.param("run --grid 4 --dataset kmeans_100mb --max-attempts 3 "
                         '--gpu --faults {"gpu_ooms":[{"task_type":"merge",'
                         '"attempts":[1,2,3]}]}',
                         "fault plan gpu_ooms[0] names no task this run "
                         "places on a GPU, so it can never fire",
                         id="run-faults-gpu-oom-serial-type"),
            pytest.param("lint --grid 0", "grid dimensions must be positive",
                         id="lint-grid"),
            pytest.param("lint --clusters 0", "n_clusters must be positive",
                         id="lint-clusters"),
            pytest.param("lint --nodes 0", "num_nodes must be positive",
                         id="lint-nodes"),
            pytest.param("decompose --grid 0",
                         "grid dimensions must be positive", id="decompose-grid"),
            pytest.param("figures fig8 --jobs 0", "jobs must be >= 1, got 0",
                         id="figures-jobs"),
            pytest.param("figures fig6 --resume --no-cache",
                         "unrecognized arguments: --resume",
                         id="figures-resume-no-cache"),
            pytest.param("run --dataset nope", UNKNOWN_DATASET,
                         id="run-dataset"),
            pytest.param("lint --dataset nope", UNKNOWN_DATASET,
                         id="lint-dataset"),
            pytest.param("decompose --dataset nope", UNKNOWN_DATASET,
                         id="decompose-dataset"),
            pytest.param("advise --dataset nope", UNKNOWN_DATASET,
                         id="advise-dataset"),
            pytest.param("advise --grids 0", "grid dimensions must be positive",
                         id="advise-grid"),
            pytest.param("advise --grids 4,x",
                         "--grids takes comma-separated integers, got '4,x'",
                         id="advise-grids-syntax"),
            pytest.param("advise --clusters 0", "n_clusters must be positive",
                         id="advise-clusters"),
        ],
    )
    def test_rejected_value_exits_2_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"repro: error: {message}"
        assert "Traceback" not in captured.err

    def test_missing_faults_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--grid", "4", "--faults", f"@{tmp_path / 'none.json'}"])
        assert exit_info.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_failed_workflow_still_exits_1(self, capsys):
        # Distinct from a usage error: the arguments were fine, the run failed.
        spec = '{"task_crashes": [{"task_type": "partial_sum"}]}'
        code = main(["run", "--grid", "4", "--iterations", "1",
                     "--faults", spec, "--max-attempts", "1"])
        assert code == 1
        assert "faults: FAILED" in capsys.readouterr().out


class TestDevlint:
    """``repro devlint`` exits 1 on any finding and 0 on none."""

    #: A scheduler draining a set in hash order: DL001 on line 2.
    UNSORTED_DRAIN = (
        "def drain(dispatch):\n"
        "    for task_id in {3, 1, 2}:\n"
        "        dispatch(task_id)\n"
    )

    def test_finding_exits_1_with_its_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "drain.py").write_text(self.UNSORTED_DRAIN)
        assert main(["devlint", "drain.py"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("drain.py:2: DL001 ")
        assert lines[-1] == "devlint: 1 finding(s)"

    def test_clean_file_exits_0(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def drain(ready):\n    return sorted(ready)\n")
        assert main(["devlint", str(clean)]) == 0
        assert capsys.readouterr().out == "devlint: 0 finding(s)\n"

    def test_json_lists_the_findings(self, capsys, tmp_path):
        hit = tmp_path / "drain.py"
        hit.write_text(self.UNSORTED_DRAIN)
        assert main(["devlint", str(hit), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["findings"]
        [finding] = payload["findings"]
        assert (finding["code"], finding["line"]) == ("DL001", 2)
        assert "fingerprint" not in finding

    def test_baseline_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["devlint", str(tmp_path), "--baseline", "x.json"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro: error: unrecognized arguments: --baseline x.json"
        )


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
