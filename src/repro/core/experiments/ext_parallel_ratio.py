"""Extension experiment — the parallel/serial transition (§5.5.1).

The paper's future-work proposal: place algorithms *between* the fully
parallelizable (Matmul) and partially parallelizable (K-means) extremes
and "devise a method to decide when it is worth exploiting GPUs based on
the ratio of parallel / serial code".  This experiment sweeps the
:class:`~repro.algorithms.SyntheticWorkflow` ratio from 0 to 1, measures
the user-code GPU speedup on the simulated cluster, predicts the same
curve analytically (Amdahl with transfer overhead), and locates the
break-even ratio both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiments.engine import SweepEngine, build_workflow, cells_product
from repro.core.experiments.runners import CpuGpuPair
from repro.core.report import Table, format_speedup
from repro.data import DatasetSpec
from repro.hardware import minotauro
from repro.perfmodel import CostModel
from repro.perfmodel.amdahl import predict

DEFAULT_RATIOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class RatioPoint:
    """One parallel-ratio configuration."""

    parallel_ratio: float
    measured_user_code_speedup: float | None
    predicted_user_code_speedup: float | None

    @property
    def gpu_worth_it(self) -> bool:
        """Measured verdict: does the GPU win on user code?"""
        return (
            self.measured_user_code_speedup is not None
            and self.measured_user_code_speedup > 1.0
        )


@dataclass
class ParallelRatioResult:
    """The full transition sweep."""

    dataset: str
    grid_rows: int
    points: list[RatioPoint] = field(default_factory=list)

    def breakeven_ratio(self, predicted: bool = False) -> float | None:
        """First swept ratio at which the GPU wins (measured or analytic)."""
        for point in sorted(self.points, key=lambda p: p.parallel_ratio):
            value = (
                point.predicted_user_code_speedup
                if predicted
                else point.measured_user_code_speedup
            )
            if value is not None and value > 1.0:
                return point.parallel_ratio
        return None

    def render(self) -> str:
        """The sweep as a table."""
        table = Table(
            title=(
                "Parallel/serial transition (synthetic workload, "
                f"{self.dataset}, grid {self.grid_rows}x1)"
            ),
            headers=("parallel ratio", "measured uc speedup",
                     "predicted uc speedup", "worth GPU?"),
        )
        for point in self.points:
            table.add_row(
                f"{point.parallel_ratio:.1f}",
                format_speedup(point.measured_user_code_speedup),
                format_speedup(point.predicted_user_code_speedup),
                "yes" if point.gpu_worth_it else "no",
            )
        measured = self.breakeven_ratio()
        predicted = self.breakeven_ratio(predicted=True)
        footer = (
            f"\nbreak-even parallel ratio: measured {measured}, "
            f"analytic {predicted}"
        )
        return table.render() + footer


def run_parallel_ratio_sweep(
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
    rows: int = 2_000_000,
    cols: int = 100,
    grid_rows: int = 64,
    engine: SweepEngine | None = None,
) -> ParallelRatioResult:
    """Sweep the parallel/serial split and compare measured vs analytic."""
    engine = engine if engine is not None else SweepEngine.serial()
    dataset = DatasetSpec("synthetic_sweep", rows=rows, cols=cols)
    model = CostModel(minotauro())
    result = ParallelRatioResult(dataset=dataset.name, grid_rows=grid_rows)
    cells = [
        cell
        for ratio in ratios
        for cell in cells_product(
            "synthetic", (grid_rows,), dataset_spec=dataset, parallel_ratio=ratio
        )
    ]
    for cell, cpu, gpu in engine.run_pairs(cells):
        workflow = build_workflow(cell)
        task_type = workflow.primary_task_type
        cost = workflow.task_costs()[task_type]
        if cost.parallel_flops > 0:
            predicted = predict(cost, model).user_code_speedup
        else:
            predicted = None
        result.points.append(
            RatioPoint(
                parallel_ratio=cell.parallel_ratio,
                measured_user_code_speedup=CpuGpuPair(cpu, gpu).stage_speedup(
                    task_type, "user_code"
                ),
                predicted_user_code_speedup=predicted,
            )
        )
    return result
