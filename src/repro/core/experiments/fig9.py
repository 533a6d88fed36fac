"""Figure 9 — algorithm-specific parameter and data skew (§5.2.2-§5.2.3).

Panel (a): K-means' ``partial_sum`` complexity is O(M N K^2), so the
number of clusters K dominates the block dimension (linear impact) —
user-code GPU speedups grow with K (up to the parallel-fraction ceiling)
and barely move with block size, until the device memory is exhausted
("GPU OOM", and "CPU GPU OOM" when even host RAM cannot hold the distance
matrices).

Panel (b): data skew.  The algorithms do not process skewed data
differently — per-task work depends only on block shape — so the user
code execution time is unchanged between 0% and 50% skew.  The simulated
backend makes this explicit (identical :class:`TaskCost`), and the test
suite additionally verifies it on real NumPy execution at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiments.engine import (
    KMEANS_GRIDS,
    SweepEngine,
    build_workflow,
    cells_product,
)
from repro.core.experiments.runners import CpuGpuPair
from repro.core.report import Table, format_seconds, format_speedup
from repro.data import DatasetSpec, paper_datasets

FIG9A_CLUSTERS = (10, 100, 1000)


@dataclass
class Fig9aPoint(CpuGpuPair):
    """One (clusters, block size) configuration.

    A ``status`` of 'cpu_oom' is the paper's 'CPU GPU OOM'.
    """

    n_clusters: int
    block_mb: float
    grid: int

    @property
    def user_code_speedup(self) -> float | None:
        """GPU-over-CPU user-code speedup of partial_sum."""
        return self.stage_speedup("partial_sum", "user_code")


@dataclass
class Fig9aResult:
    """The cluster-count sweep of panel (a)."""

    dataset: str
    points: list[Fig9aPoint] = field(default_factory=list)

    def speedups_for_clusters(self, n_clusters: int) -> dict[float, float | None]:
        """block MB -> user-code speedup at one cluster count."""
        return {
            p.block_mb: p.user_code_speedup
            for p in self.points
            if p.n_clusters == n_clusters
        }

    def best_speedup(self, n_clusters: int) -> float | None:
        """The best user-code speedup achieved at one cluster count."""
        values = [
            v for v in self.speedups_for_clusters(n_clusters).values() if v is not None
        ]
        return max(values) if values else None

    def chart(self) -> str:
        """Panel (a) as an ASCII chart: one curve per cluster count."""
        from repro.core.plotting import speedup_chart

        return speedup_chart(
            {
                f"{k} clusters": self.speedups_for_clusters(k)
                for k in sorted({p.n_clusters for p in self.points})
            },
            f"Figure 9a shape: user-code speedup vs block MB ({self.dataset})",
        )

    def render(self) -> str:
        """Panel (a) as a table."""
        table = Table(
            title=f"Figure 9a: the effect of #clusters in K-means ({self.dataset})",
            headers=(
                "clusters",
                "block MB",
                "Usr.Code speedup",
                "P.Frac CPU",
                "S.Frac",
                "P.Frac GPU",
                "CPU-GPU comm",
                "status",
            ),
        )
        for p in self.points:
            table.add_row(
                p.n_clusters,
                f"{p.block_mb:.0f}",
                format_speedup(p.user_code_speedup),
                format_seconds(p.stage(False, "partial_sum", "parallel_fraction")),
                format_seconds(p.stage(False, "partial_sum", "serial_fraction")),
                format_seconds(p.stage(True, "partial_sum", "parallel_fraction")),
                format_seconds(p.stage(True, "partial_sum", "cpu_gpu_comm")),
                p.status,
            )
        return table.render()


def run_fig9a(
    dataset_key: str = "kmeans_10gb",
    clusters: tuple[int, ...] = FIG9A_CLUSTERS,
    grids: tuple[int, ...] = KMEANS_GRIDS,
    engine: SweepEngine | None = None,
) -> Fig9aResult:
    """Sweep cluster counts and block sizes for panel (a)."""
    engine = engine if engine is not None else SweepEngine.serial()
    result = Fig9aResult(dataset=dataset_key)
    cells = [
        cell
        for n_clusters in clusters
        for cell in cells_product(
            "kmeans", grids, dataset_key=dataset_key, n_clusters=n_clusters
        )
    ]
    for cell, cpu, gpu in engine.run_pairs(cells):
        result.points.append(
            Fig9aPoint(
                n_clusters=cell.n_clusters,
                block_mb=build_workflow(cell).block_mb,
                grid=cell.grid,
                cpu=cpu,
                gpu=gpu,
            )
        )
    return result


@dataclass
class Fig9bPoint:
    """User-code times for one (algorithm, skew) pair."""

    algorithm: str
    skew: float
    cpu_user_code: float
    gpu_user_code: float


@dataclass
class Fig9bResult:
    """The data-skew comparison of panel (b)."""

    points: list[Fig9bPoint] = field(default_factory=list)

    def times_for(self, algorithm: str) -> dict[float, tuple[float, float]]:
        """skew -> (CPU, GPU) user-code times."""
        return {
            p.skew: (p.cpu_user_code, p.gpu_user_code)
            for p in self.points
            if p.algorithm == algorithm
        }

    def render(self) -> str:
        """Panel (b) as a table."""
        table = Table(
            title="Figure 9b: the effect of data skew (Matmul 2 GB, K-means 1 GB)",
            headers=("algorithm", "skew", "CPU user code", "GPU user code"),
        )
        for p in self.points:
            table.add_row(
                p.algorithm,
                f"{p.skew:.0%}",
                format_seconds(p.cpu_user_code),
                format_seconds(p.gpu_user_code),
            )
        return table.render()


def _skew_variants(base: DatasetSpec) -> list[DatasetSpec]:
    return [
        DatasetSpec(
            name=f"{base.name}-skew{int(skew * 100)}",
            rows=base.rows,
            cols=base.cols,
            dtype_bytes=base.dtype_bytes,
            skew=skew,
            seed=base.seed,
        )
        for skew in (0.0, 0.5)
    ]


def run_fig9b(grid: int = 8, engine: SweepEngine | None = None) -> Fig9bResult:
    """Compare uniform vs 50%-skewed datasets for both algorithms."""
    engine = engine if engine is not None else SweepEngine.serial()
    datasets = paper_datasets()
    cells = [
        cell
        for algorithm, key, n_clusters in (
            ("matmul", "matmul_2gb", 0), ("kmeans", "kmeans_1gb", 10)
        )
        for variant in _skew_variants(datasets[key])
        for cell in cells_product(
            algorithm, (grid,), dataset_spec=variant, n_clusters=n_clusters
        )
    ]
    result = Fig9bResult()
    for cell, cpu, gpu in engine.run_pairs(cells):
        task_type = build_workflow(cell).primary_task_type
        result.points.append(
            Fig9bPoint(
                algorithm=cell.algorithm,
                skew=cell.dataset_spec.skew,
                cpu_user_code=cpu.user_code[task_type].user_code,
                gpu_user_code=gpu.user_code[task_type].user_code,
            )
        )
    return result
