"""Figure 10 — storage architecture x scheduling policy (§5.3).

Parallel-task execution time across the four combinations of storage
(local vs shared disk) and scheduler (task generation order vs data
locality), for Matmul (8 GB) and K-means (10 GB, 10 clusters).  The
expected shapes: local disk beats shared disk; the scheduling policy
barely matters on local disk (O5) but shows for the cheap K-means tasks
on shared disk (O6); time rises with block size as task parallelism is
lost, and drops at the maximum block size where a single task runs with
no distribution overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiments.engine import (
    KMEANS_GRIDS,
    MATMUL_GRIDS,
    SweepEngine,
    build_workflow,
    cells_product,
)
from repro.core.experiments.runners import RunMetrics
from repro.core.report import Table, format_seconds
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy

_COMBOS: tuple[tuple[StorageKind, SchedulingPolicy], ...] = (
    (StorageKind.LOCAL, SchedulingPolicy.GENERATION_ORDER),
    (StorageKind.LOCAL, SchedulingPolicy.DATA_LOCALITY),
    (StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER),
    (StorageKind.SHARED, SchedulingPolicy.DATA_LOCALITY),
)


@dataclass
class Fig10Cell:
    """One (storage, policy, grid, processor) measurement."""

    storage: StorageKind
    scheduling: SchedulingPolicy
    grid: int
    block_mb: float
    use_gpu: bool
    metrics: RunMetrics

    @property
    def parallel_task_time(self) -> float | None:
        """The bar height of Figure 10 ('-' on OOM)."""
        return self.metrics.parallel_task_time if self.metrics.ok else None


@dataclass
class Fig10Result:
    """One Figure 10 panel (one algorithm)."""

    algorithm: str
    dataset: str
    cells: list[Fig10Cell] = field(default_factory=list)

    def series(
        self,
        storage: StorageKind,
        scheduling: SchedulingPolicy,
        use_gpu: bool,
    ) -> dict[int, float | None]:
        """grid -> parallel-task time for one combination."""
        return {
            c.grid: c.parallel_task_time
            for c in self.cells
            if c.storage is storage
            and c.scheduling is scheduling
            and c.use_gpu is use_gpu
        }

    def chart(
        self, storage: StorageKind, scheduling: SchedulingPolicy
    ) -> str:
        """One combination's CPU/GPU bars vs block size."""
        from repro.core.plotting import bar_chart

        bars: dict[str, float | None] = {}
        grids = sorted({c.grid for c in self.cells}, reverse=True)
        cpu = self.series(storage, scheduling, False)
        gpu = self.series(storage, scheduling, True)
        for grid in grids:
            block_mb = next(c.block_mb for c in self.cells if c.grid == grid)
            bars[f"{block_mb:.0f}MB CPU"] = cpu.get(grid)
            bars[f"{block_mb:.0f}MB GPU"] = gpu.get(grid)
        return bar_chart(
            bars,
            title=(
                f"Figure 10 shape: {self.algorithm}, {storage.value}, "
                f"{scheduling.value} (parallel-task seconds)"
            ),
        )

    def render(self) -> str:
        """The panel as a table (one row per grid, one column per combo)."""
        headers = ["block MB", "grid"]
        for storage, policy in _COMBOS:
            prefix = "local" if storage is StorageKind.LOCAL else "shared"
            suffix = "gen" if policy is SchedulingPolicy.GENERATION_ORDER else "loc"
            headers += [f"{prefix}/{suffix} CPU", f"{prefix}/{suffix} GPU"]
        table = Table(
            title=(
                f"Figure 10: storage x scheduling, {self.algorithm} "
                f"({self.dataset}), parallel-task average time"
            ),
            headers=tuple(headers),
        )
        grids = sorted({c.grid for c in self.cells}, reverse=True)
        by_key = {
            (c.storage, c.scheduling, c.grid, c.use_gpu): c for c in self.cells
        }
        for grid in grids:
            block_mb = next(c.block_mb for c in self.cells if c.grid == grid)
            row: list[str] = [f"{block_mb:.0f}", str(grid)]
            for storage, policy in _COMBOS:
                for use_gpu in (False, True):
                    cell = by_key.get((storage, policy, grid, use_gpu))
                    value = cell.parallel_task_time if cell else None
                    row.append(format_seconds(value) if value is not None else "OOM")
            table.add_row(*row)
        return table.render()


def run_fig10_for(
    algorithm: str,
    dataset_key: str,
    grids: tuple[int, ...],
    combos: tuple[tuple[StorageKind, SchedulingPolicy], ...] = _COMBOS,
    engine: SweepEngine | None = None,
) -> Fig10Result:
    """Sweep one algorithm over the storage x scheduler combinations."""
    engine = engine if engine is not None else SweepEngine.serial()
    result = Fig10Result(algorithm=algorithm, dataset=dataset_key)
    cells = [
        cell
        for storage, policy in combos
        for cell in cells_product(
            algorithm,
            grids,
            dataset_key=dataset_key,
            n_clusters=10 if algorithm == "kmeans" else 0,
            storage=storage,
            scheduling=policy,
        )
    ]
    for cell, metrics in zip(cells, engine.run_cells(cells)):
        result.cells.append(
            Fig10Cell(
                storage=cell.storage,
                scheduling=cell.scheduling,
                grid=cell.grid,
                block_mb=build_workflow(cell).block_mb,
                use_gpu=cell.use_gpu,
                metrics=metrics,
            )
        )
    return result


def run_fig10(
    engine: SweepEngine | None = None,
) -> tuple[Fig10Result, Fig10Result]:
    """Both Figure 10 panels: (Matmul 8 GB, K-means 10 GB)."""
    engine = engine if engine is not None else SweepEngine.serial()
    return (
        run_fig10_for("matmul", "matmul_8gb", MATMUL_GRIDS, engine=engine),
        run_fig10_for("kmeans", "kmeans_10gb", KMEANS_GRIDS, engine=engine),
    )
