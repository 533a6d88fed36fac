"""Figure 8 — task computational complexity in Matmul (§5.2.1).

Matmul has two task types with complexities two orders of magnitude
apart: ``matmul_func`` is O(N^3) and ``add_func`` O(N).  The figure shows
the user-code GPU speedup per task type against the block size, with the
parallel-fraction and CPU-GPU-communication times that explain them: the
O(N^3) kernel amortises the bus transfer and scales to ~21x, while the
O(N) kernel is transfer-dominated and the GPU *loses* at every size.

Note the paper skips the 8192 MB point: at maximum granularity the matrix
is multiplied by a single ``matmul_func`` and no ``add_func`` exists (and
the GPU is out of memory anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiments.engine import SweepEngine, build_workflow, cells_product
from repro.core.experiments.runners import CpuGpuPair
from repro.core.report import Table, format_seconds, format_speedup

FIG8_GRIDS = (16, 8, 4, 2)


@dataclass
class Fig8Point(CpuGpuPair):
    """Per-task-type stage times at one block size."""

    block_mb: float
    grid: int

    def user_code_speedup(self, task_type: str) -> float | None:
        """GPU-over-CPU user-code speedup of one task type."""
        return self.stage_speedup(task_type, "user_code")


@dataclass
class Fig8Result:
    """The Figure 8 sweep."""

    dataset: str
    points: list[Fig8Point] = field(default_factory=list)

    def speedups(self, task_type: str) -> dict[float, float | None]:
        """block MB -> user-code speedup for one task type."""
        return {p.block_mb: p.user_code_speedup(task_type) for p in self.points}

    def chart(self) -> str:
        """Figure 8 as an ASCII chart (speedup vs block size)."""
        from repro.core.plotting import speedup_chart

        return speedup_chart(
            {
                "matmul_func": self.speedups("matmul_func"),
                "add_func": self.speedups("add_func"),
            },
            f"Figure 8 shape: user-code GPU speedup vs block MB ({self.dataset})",
        )

    def render(self) -> str:
        """Figure 8 as a table."""
        table = Table(
            title=f"Figure 8: task computational complexity in Matmul ({self.dataset})",
            headers=(
                "block MB",
                "task type",
                "Usr.Code speedup",
                "P.Frac CPU",
                "P.Frac GPU",
                "CPU-GPU comm",
                "status",
            ),
        )
        for point in self.points:
            for task_type in ("matmul_func", "add_func"):
                table.add_row(
                    f"{point.block_mb:.0f}",
                    task_type,
                    format_speedup(point.user_code_speedup(task_type)),
                    format_seconds(
                        point.stage(False, task_type, "parallel_fraction")
                    ),
                    format_seconds(
                        point.stage(True, task_type, "parallel_fraction")
                    ),
                    format_seconds(point.stage(True, task_type, "cpu_gpu_comm")),
                    point.status,
                )
        return table.render()


def run_fig8(
    dataset_key: str = "matmul_8gb",
    grids: tuple[int, ...] = FIG8_GRIDS,
    engine: SweepEngine | None = None,
) -> Fig8Result:
    """Sweep Matmul block sizes and profile both task types."""
    engine = engine if engine is not None else SweepEngine.serial()
    result = Fig8Result(dataset=dataset_key)
    cells = cells_product("matmul", grids, dataset_key=dataset_key)
    for cell, cpu, gpu in engine.run_pairs(cells):
        result.points.append(
            Fig8Point(
                block_mb=build_workflow(cell).block_mb,
                grid=cell.grid,
                cpu=cpu,
                gpu=gpu,
            )
        )
    return result
