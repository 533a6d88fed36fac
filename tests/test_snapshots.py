"""Golden-output snapshots of small deterministic renders.

The simulator is deterministic, so these exact-text snapshots guard
against silent changes to the public renders that the benches print as
the reproduction's artefacts.  If an intentional change trips one, update
the expected text alongside the change.
"""

import json

import pytest

from repro.cli import main
from repro.core.experiments import cells_product, run_fig6, run_fig11
from repro.core.factors import factors_table
from repro.data import Blocking, ChunkingPolicy, DatasetSpec, GridSpec
from repro.data.blocking import render_partitioning

FIG6_SNAPSHOT = """\
Figure 6: DAG shapes (K-means 4x1 x3 iters vs Matmul 4x4)

algorithm                    tasks  edges  width  height  width/height  per type
---------------------------  -----  -----  -----  ------  ------------  ---------------------------
K-means (4x1, 3 iterations)     15     20      4       6          0.67      partial_sum=12, merge=3
               Matmul (4x4)    112     96     64       3         21.33  matmul_func=64, add_func=48"""

FIG5_ROW_WISE_SNAPSHOT = """\
dataset 8x8 (64 elements), block 2x4, grid 4 x 2 (row_wise chunking)
 T1  T1  T1  T1  T1  T1  T1  T1
 T1  T1  T1  T1  T1  T1  T1  T1
 T2  T2  T2  T2  T2  T2  T2  T2
 T2  T2  T2  T2  T2  T2  T2  T2
 T3  T3  T3  T3  T3  T3  T3  T3
 T3  T3  T3  T3  T3  T3  T3  T3
 T4  T4  T4  T4  T4  T4  T4  T4
 T4  T4  T4  T4  T4  T4  T4  T4"""


FIG11_SNAPSHOT = """\
Spearman correlation matrix

feature                   parallel  block_si  grid_dim  parallel  algorith  computat  dag_max_  dag_max_  dataset_  cpu     gpu     shared_d  local_di  task_gen  data_loc
------------------------  --------  --------  --------  --------  --------  --------  --------  --------  --------  ------  ------  --------  --------  --------  --------
 parallel_task_exec_time    +1.000    +0.049    +0.076    +0.855    -0.853    +0.935    +0.379    -0.826    +0.853  +0.174  -0.174         -         -         -         -
              block_size    +0.049    +1.000    -0.975    +0.148    +0.289    +0.200    -0.821    +0.112    -0.289  +0.000  +0.000         -         -         -         -
          grid_dimension    +0.076    -0.975    +1.000    +0.000    -0.444    -0.051    +0.921    -0.287    +0.444  +0.000  +0.000         -         -         -         -
       parallel_fraction    +0.855    +0.148    +0.000    +1.000    -0.782    +0.862    +0.328    -0.826    +0.782  +0.453  -0.453         -         -         -         -
algorithm_specific_param    -0.853    +0.289    -0.444    -0.782    +1.000    -0.866    -0.740    +0.968    -1.000  +0.000  +0.000         -         -         -         -
computational_complexity    +0.935    +0.200    -0.051    +0.862    -0.866    +1.000    +0.308    -0.894    +0.866  +0.000  +0.000         -         -         -         -
           dag_max_width    +0.379    -0.821    +0.921    +0.328    -0.740    +0.308    +1.000    -0.631    +0.740  +0.000  +0.000         -         -         -         -
          dag_max_height    -0.826    +0.112    -0.287    -0.826    +0.968    -0.894    -0.631    +1.000    -0.968  +0.000  +0.000         -         -         -         -
            dataset_size    +0.853    -0.289    +0.444    +0.782    -1.000    +0.866    +0.740    -0.968    +1.000  +0.000  +0.000         -         -         -         -
                     cpu    +0.174    +0.000    +0.000    +0.453    +0.000    +0.000    +0.000    +0.000    +0.000  +1.000  -1.000         -         -         -         -
                     gpu    -0.174    +0.000    +0.000    -0.453    +0.000    +0.000    +0.000    +0.000    +0.000  -1.000  +1.000         -         -         -         -
     shared_disk_storage         -         -         -         -         -         -         -         -         -       -       -         -         -         -         -
      local_disk_storage         -         -         -         -         -         -         -         -         -       -       -         -         -         -         -
task_gen_order_schedulin         -         -         -         -         -         -         -         -         -       -       -         -         -         -         -
data_locality_scheduling         -         -         -         -         -         -         -         -         -       -       -         -         -         -         -

samples: 10 valid of 10 planned (0 OOM)

Key cells vs the paper

feature pair                                        paper rho  measured rho
--------------------------------------------------  ---------  ------------
              parallel_task_exec_time ~ block_size     +0.398        +0.049
       parallel_task_exec_time ~ parallel_fraction     +0.377        +0.855
parallel_task_exec_time ~ computational_complexity     +0.499        +0.935
           parallel_task_exec_time ~ dag_max_width     -0.005        +0.379
            parallel_task_exec_time ~ dataset_size     -0.009        +0.853
     parallel_task_exec_time ~ shared_disk_storage     +0.194          +nan
                     parallel_task_exec_time ~ cpu     +0.066        +0.174
                           gpu ~ parallel_fraction     -0.460        -0.453
                       block_size ~ grid_dimension     -0.778        -0.975"""


_WF202_HINT = (
    "keep these tasks on CPUs (gpu_task_types=), raise arithmetic "
    "intensity, or enable comm_overlap"
)


def _wf202(task_type: str, task_ids: list[int]) -> dict:
    return {
        "code": "WF202",
        "hint": _WF202_HINT,
        "message": (
            f"{len(task_ids)} {task_type!r} task(s) spend longer moving data "
            "over PCIe than computing on the device; GPU placement is "
            "transfer-bound (the paper's O4)"
        ),
        "severity": "warning",
        "task_ids": task_ids,
        "task_type": task_type,
    }


#: ``repro lint --format json`` on the configurations the CI
#: static-analysis job lints: (algorithm, grid, --gpu) -> diagnostics.
#: K-means grid 64 has three iterations of 64 ``partial_sum`` tasks and
#: one ``merge`` (ids 64, 129, 194); Matmul grid 4 has 16 blocks of four
#: ``matmul_func`` tasks followed by three ``add_func`` tasks.
LINT_SNAPSHOTS = {
    ("kmeans", 64, False): [],
    ("kmeans", 64, True): [
        _wf202("partial_sum", [i for i in range(195) if i % 65 != 64]),
    ],
    ("matmul", 4, False): [],
    ("matmul", 4, True): [
        _wf202("matmul_func", [7 * b + j for b in range(16) for j in range(4)]),
        _wf202("add_func", [7 * b + j for b in range(16) for j in (4, 5, 6)]),
    ],
}


def _rstripped(text: str) -> list[str]:
    return [line.rstrip() for line in text.splitlines()]


class TestSnapshots:
    def test_fig6_render_snapshot(self):
        assert _rstripped(run_fig6().render()) == _rstripped(FIG6_SNAPSHOT)

    def test_fig5_partitioning_snapshot(self):
        blocking = Blocking.from_grid(
            DatasetSpec("fig5", rows=8, cols=8), GridSpec(k=4, l=2)
        )
        text = render_partitioning(blocking, ChunkingPolicy.ROW_WISE)
        assert text == FIG5_ROW_WISE_SNAPSHOT

    def test_fig11_small_design_snapshot(self):
        # The 10-cell design of test_experiments_small.TestFig11.
        cells = cells_product(
            "kmeans", (8, 4, 2), dataset_key="kmeans_100mb", n_clusters=10
        ) + cells_product("matmul", (4, 2), dataset_key="matmul_128mb")
        assert run_fig11(cells).render() == FIG11_SNAPSHOT

    @pytest.mark.parametrize(
        "algorithm, grid, gpu",
        sorted(LINT_SNAPSHOTS),
        ids=[
            f"{algorithm}{grid}-{'gpu' if gpu else 'cpu'}"
            for algorithm, grid, gpu in sorted(LINT_SNAPSHOTS)
        ],
    )
    def test_lint_json_snapshot(self, capsys, algorithm, grid, gpu):
        diagnostics = LINT_SNAPSHOTS[(algorithm, grid, gpu)]
        argv = ["lint", "--algorithm", algorithm, "--grid", str(grid)]
        assert main(argv + ["--gpu"] * gpu + ["--format", "json"]) == 0
        expected = {
            "cluster": "minotauro-8",
            "diagnostics": diagnostics,
            "summary": {"errors": 0, "info": 0, "warnings": len(diagnostics)},
            "use_gpu": gpu,
        }
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        # print() adds a newline after the report's own.
        assert capsys.readouterr().out == text + "\n"

    def test_table1_row_count_snapshot(self):
        lines = factors_table().render().splitlines()
        # Title, blank, header, rule, 8 factor rows.
        assert len(lines) == 12

