"""Factor correlation analysis on a custom design (§5.4 as a tool).

Builds a small factorial design over the Table-1 factors, executes every
sample on the simulated cluster, and prints the Spearman correlation of
each factor with the parallel-task execution time — the same procedure
behind the paper's Figure 11, usable on any workload mix.

Run:  python examples/correlation_analysis.py
"""

from repro.core.experiments import CellSpec, run_fig11
from repro.core.report import Table
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy


def small_design():
    """A ~60-sample design that runs in a few seconds."""
    cells = []
    shared = StorageKind.SHARED
    local = StorageKind.LOCAL
    gen = SchedulingPolicy.GENERATION_ORDER
    loc = SchedulingPolicy.DATA_LOCALITY
    for grid in (8, 4, 2):
        for gpu in (False, True):
            for storage, sched in ((shared, gen), (local, gen), (shared, loc)):
                cells.append(
                    CellSpec("matmul", grid, dataset_key="matmul_8gb",
                             use_gpu=gpu, storage=storage, scheduling=sched)
                )
    for grid in (128, 32, 8, 2):
        for gpu in (False, True):
            for clusters in (10, 100):
                cells.append(
                    CellSpec("kmeans", grid, dataset_key="kmeans_10gb",
                             n_clusters=clusters, use_gpu=gpu)
                )
    return cells


def main():
    result = run_fig11(small_design())
    print(
        f"executed {result.n_samples} samples "
        f"({result.n_oom} OOM of {result.n_planned} planned)\n"
    )
    table = Table(
        title="Spearman correlation with parallel-task execution time",
        headers=("factor / parameter", "rho"),
    )
    column = result.matrix.column("parallel_task_exec_time")
    for feature, rho in sorted(column.items(), key=lambda kv: -abs(kv[1])):
        table.add_row(feature, f"{rho:+.3f}")
    print(table.render())
    print(
        "\nComputational complexity, parallel fraction, and block size "
        "dominate; no single\nfactor explains the execution time alone — "
        "the paper's core claim."
    )


if __name__ == "__main__":
    main()
