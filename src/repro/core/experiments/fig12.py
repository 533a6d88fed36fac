"""Figure 12 — generalizability: Matmul FMA (§5.5.1).

The Fused Multiply-Add implementation of matrix multiplication is run with
the same parameters as the Figure 8 experiment.  Because the per-task cost
profile matches ``matmul_func`` (O(N^3) compute, three resident blocks),
the user-code speedup, parallel fraction, and CPU-GPU communication trends
repeat — the paper's evidence that the analysis transfers across
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiments.engine import (
    MATMUL_GRIDS,
    SweepEngine,
    build_workflow,
    cells_product,
)
from repro.core.experiments.runners import CpuGpuPair
from repro.core.report import Table, format_seconds, format_speedup


@dataclass
class Fig12Point(CpuGpuPair):
    """fma_func stage times at one block size."""

    block_mb: float
    grid: int

    @property
    def user_code_speedup(self) -> float | None:
        """GPU-over-CPU user-code speedup of fma_func."""
        return self.stage_speedup("fma_func", "user_code")


@dataclass
class Fig12Result:
    """The Matmul FMA sweep."""

    dataset: str
    points: list[Fig12Point] = field(default_factory=list)

    def speedups(self) -> dict[float, float | None]:
        """block MB -> user-code speedup."""
        return {p.block_mb: p.user_code_speedup for p in self.points}

    def render(self) -> str:
        """Figure 12 as a table."""
        table = Table(
            title=f"Figure 12: Matmul FMA task user code ({self.dataset})",
            headers=(
                "block MB",
                "Usr.Code speedup",
                "P.Frac CPU",
                "P.Frac GPU",
                "CPU-GPU comm",
                "status",
            ),
        )
        for p in self.points:
            table.add_row(
                f"{p.block_mb:.0f}",
                format_speedup(p.user_code_speedup),
                format_seconds(p.stage(False, "fma_func", "parallel_fraction")),
                format_seconds(p.stage(True, "fma_func", "parallel_fraction")),
                format_seconds(p.stage(True, "fma_func", "cpu_gpu_comm")),
                p.status,
            )
        return table.render()


def run_fig12(
    dataset_key: str = "matmul_8gb",
    grids: tuple[int, ...] = MATMUL_GRIDS,
    engine: SweepEngine | None = None,
) -> Fig12Result:
    """Sweep Matmul FMA block sizes with the Figure 8 parameters."""
    engine = engine if engine is not None else SweepEngine.serial()
    result = Fig12Result(dataset=dataset_key)
    cells = cells_product("matmul_fma", grids, dataset_key=dataset_key)
    for cell, cpu, gpu in engine.run_pairs(cells):
        result.points.append(
            Fig12Point(
                block_mb=build_workflow(cell).block_mb,
                grid=cell.grid,
                cpu=cpu,
                gpu=gpu,
            )
        )
    return result
