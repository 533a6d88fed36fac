"""Figure 11 — Spearman correlation of all factors and parameters (§5.4).

A full-factorial sample set (the paper uses 192 samples spanning both
algorithms, three dataset sizes each — including the small 128 MB / 100 MB
datasets added for this analysis — every grid dimension, both processor
types, both storage architectures, and both scheduling policies) is
executed on the simulated cluster; each sample contributes one row of
features (factors, parameters, and the measured parallel-task execution
time).  Categorical features are one-hot encoded and the Spearman rank
correlation is computed between every pair.

The paper's key cells, used as shape targets by the benchmark:

===============================  ======
pair                              rho
===============================  ======
exec time ~ block size            +0.40
exec time ~ parallel fraction     +0.38
exec time ~ computational compl.  +0.50
exec time ~ DAG max width         -0.005
exec time ~ dataset size          -0.009
exec time ~ shared disk           +0.19
exec time ~ CPU                   +0.07
GPU ~ parallel fraction           -0.46
block size ~ grid dimension       -0.78
===============================  ======
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.correlation import CorrelationMatrix, spearman_matrix
from repro.core.experiments.engine import (
    KMEANS_GRIDS,
    MATMUL_GRIDS,
    CellSpec,
    SweepEngine,
    build_workflow,
    cells_product,
)
from repro.core.report import Table
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy

#: Feature names in the order of the paper's Figure 11 matrix.
FEATURES = (
    "parallel_task_exec_time",
    "block_size",
    "grid_dimension",
    "parallel_fraction",
    "algorithm_specific_param",
    "computational_complexity",
    "dag_max_width",
    "dag_max_height",
    "dataset_size",
    "cpu",
    "gpu",
    "shared_disk_storage",
    "local_disk_storage",
    "task_gen_order_scheduling",
    "data_locality_scheduling",
)

#: Paper values for the cells the benchmark compares against.
PAPER_REFERENCE = {
    ("parallel_task_exec_time", "block_size"): 0.398,
    ("parallel_task_exec_time", "parallel_fraction"): 0.377,
    ("parallel_task_exec_time", "computational_complexity"): 0.499,
    ("parallel_task_exec_time", "dag_max_width"): -0.005,
    ("parallel_task_exec_time", "dataset_size"): -0.009,
    ("parallel_task_exec_time", "shared_disk_storage"): 0.194,
    ("parallel_task_exec_time", "cpu"): 0.066,
    ("gpu", "parallel_fraction"): -0.460,
    ("block_size", "grid_dimension"): -0.778,
}


def default_design() -> list[CellSpec]:
    """The 192-sample factorial design mirroring §5.4.

    Base sweeps on shared disk + generation order (both algorithms, three
    dataset sizes each), the Figure 10 storage/scheduler extras, and the
    Figure 9a cluster-count extras.  The base and extra cells are the
    Figure 7/9a/10 cells verbatim, so a shared engine dedupes them.
    """
    design: list[CellSpec] = []
    # Base sweeps: shared disk, generation order.
    for dataset_key in ("matmul_128mb", "matmul_8gb", "matmul_32gb"):
        design += cells_product("matmul", MATMUL_GRIDS, dataset_key=dataset_key)
    for dataset_key in ("kmeans_100mb", "kmeans_10gb", "kmeans_100gb"):
        design += cells_product(
            "kmeans", KMEANS_GRIDS, dataset_key=dataset_key, n_clusters=10
        )

    # Storage x scheduler extras (Figure 10 design).
    for storage, scheduling in (
        (StorageKind.LOCAL, SchedulingPolicy.GENERATION_ORDER),
        (StorageKind.LOCAL, SchedulingPolicy.DATA_LOCALITY),
        (StorageKind.SHARED, SchedulingPolicy.DATA_LOCALITY),
    ):
        design += cells_product(
            "matmul", MATMUL_GRIDS, dataset_key="matmul_8gb",
            storage=storage, scheduling=scheduling,
        )
        design += cells_product(
            "kmeans", KMEANS_GRIDS, dataset_key="kmeans_10gb", n_clusters=10,
            storage=storage, scheduling=scheduling,
        )

    # Cluster-count extras (Figure 9a design).
    for clusters in (100, 1000):
        design += cells_product(
            "kmeans", (256, 128, 64, 32, 16, 8), dataset_key="kmeans_10gb",
            n_clusters=clusters,
        )
    return design


def feature_row(
    workflow,
    *,
    n_clusters: int,
    use_gpu: bool,
    storage: StorageKind,
    scheduling: SchedulingPolicy,
    parallel_fraction: float,
    dag_width: int,
    dag_height: int,
) -> dict[str, float]:
    """One sample's Table-1 factor features (every column but the time).

    The blocking and complexity features come from ``workflow``; the
    parallel fraction and DAG dimensions are inputs, because Figure 11
    measures them while the advisor derives them without simulating.
    """
    blocking = workflow.blocking
    cost = workflow.task_costs()[workflow.primary_task_type]
    return {
        "block_size": float(blocking.block_bytes),
        "grid_dimension": float(blocking.grid.num_blocks),
        "parallel_fraction": parallel_fraction,
        "algorithm_specific_param": float(n_clusters),
        "computational_complexity": cost.parallel_flops,
        "dag_max_width": float(dag_width),
        "dag_max_height": float(dag_height),
        "dataset_size": float(blocking.dataset.size_bytes),
        "cpu": float(not use_gpu),
        "gpu": float(use_gpu),
        "shared_disk_storage": float(storage is StorageKind.SHARED),
        "local_disk_storage": float(storage is StorageKind.LOCAL),
        "task_gen_order_scheduling": float(
            scheduling is SchedulingPolicy.GENERATION_ORDER
        ),
        "data_locality_scheduling": float(
            scheduling is SchedulingPolicy.DATA_LOCALITY
        ),
    }


@dataclass
class Fig11Result:
    """The correlation analysis output."""

    matrix: CorrelationMatrix
    n_samples: int
    n_planned: int
    n_oom: int
    columns: dict[str, list[float]] = field(default_factory=dict)

    def value(self, a: str, b: str) -> float:
        """rho between two named features."""
        return self.matrix.value(a, b)

    def render(self) -> str:
        """The matrix plus the paper-reference comparison."""
        parts = [
            self.matrix.render(),
            "",
            f"samples: {self.n_samples} valid of {self.n_planned} planned "
            f"({self.n_oom} OOM)",
            "",
        ]
        table = Table(
            title="Key cells vs the paper",
            headers=("feature pair", "paper rho", "measured rho"),
        )
        for (a, b), paper_value in PAPER_REFERENCE.items():
            table.add_row(f"{a} ~ {b}", f"{paper_value:+.3f}", f"{self.value(a, b):+.3f}")
        parts.append(table.render())
        return "\n".join(parts)


def run_fig11(
    plans: Sequence[CellSpec] | None = None,
    engine: SweepEngine | None = None,
) -> Fig11Result:
    """Execute the factorial design and build the Spearman matrix.

    ``plans`` lists the cells to sample (:func:`default_design` if
    ``None``).
    """
    engine = engine if engine is not None else SweepEngine.serial()
    cells = list(plans) if plans is not None else default_design()
    columns: dict[str, list[float]] = {feature: [] for feature in FEATURES}
    n_oom = 0
    for cell, metrics in zip(cells, engine.run_cells(cells)):
        if not metrics.ok:
            n_oom += 1
            continue
        workflow = build_workflow(cell)
        row = feature_row(
            workflow,
            n_clusters=cell.n_clusters,
            use_gpu=cell.use_gpu,
            storage=cell.storage,
            scheduling=cell.scheduling,
            parallel_fraction=(
                metrics.user_code[workflow.primary_task_type].parallel_fraction
            ),
            dag_width=metrics.dag_width,
            dag_height=metrics.dag_height,
        )
        row["parallel_task_exec_time"] = metrics.parallel_task_time
        for feature, column in columns.items():
            column.append(row[feature])
    matrix = spearman_matrix(columns)
    return Fig11Result(
        matrix=matrix,
        n_samples=len(columns["parallel_task_exec_time"]),
        n_planned=len(cells),
        n_oom=n_oom,
        columns=columns,
    )
