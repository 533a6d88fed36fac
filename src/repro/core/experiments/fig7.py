"""Figure 7 — end-to-end performance analysis (§5.1).

For each algorithm and dataset, sweep the block dimension (grid sizes of
§4.4.5) on both processor types and report the stage-level GPU speedups
(parallel fraction, user code, parallel tasks) plus the execution times
they derive from, including the (de-)serialization overheads and GPU OOM
regions.
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
from repro.core.experiments.runners import CpuGpuPair, RunMetrics
from repro.core.report import Table, format_seconds, format_speedup


@dataclass
class Fig7Point(CpuGpuPair):
    """One block-dimension configuration of one dataset."""

    grid_label: str
    block_mb: float
    num_tasks: int
    primary_task_type: str

    @property
    def parallel_fraction_speedup(self) -> float | None:
        """GPU speedup of the parallel fraction (primary task type)."""
        return self.stage_speedup(self.primary_task_type, "parallel_fraction")

    @property
    def user_code_speedup(self) -> float | None:
        """GPU speedup of the full task user code (primary task type)."""
        return self.stage_speedup(self.primary_task_type, "user_code")

    @property
    def user_code_speedup_decrease(self) -> float | None:
        """How much the user-code speedup falls short of the parallel-
        fraction speedup (§5.1: ~35% fine-grained vs ~20% coarse for the
        8 GB Matmul) — the cost of communication and serial time."""
        pf = self.parallel_fraction_speedup
        uc = self.user_code_speedup
        if pf is None or uc is None or pf <= 0:
            return None
        return 1.0 - uc / pf

    def movement_per_core(self, metrics: RunMetrics) -> float | None:
        """Average (de-)serialization time per CPU core."""
        if not metrics.ok or metrics.movement is None:
            return None
        return metrics.movement.total_per_core


@dataclass
class Fig7Series:
    """The full block-dimension sweep of one dataset."""

    algorithm: str
    dataset: str
    points: list[Fig7Point] = field(default_factory=list)

    def speedup_by_block(self, attr: str) -> dict[float, float | None]:
        """Map block MB -> one of the three speedups."""
        return {p.block_mb: getattr(p, attr) for p in self.points}

    def chart(self) -> str:
        """The panel's three speedup curves as an ASCII chart."""
        from repro.core.plotting import speedup_chart

        return speedup_chart(
            {
                "P.Frac": self.speedup_by_block("parallel_fraction_speedup"),
                "Usr.Code": self.speedup_by_block("user_code_speedup"),
                "P.Task": self.speedup_by_block("parallel_tasks_speedup"),
            },
            f"Figure 7 shape: {self.algorithm} {self.dataset}",
        )

    def render(self) -> str:
        """One Figure 7 panel as a table."""
        table = Table(
            title=f"Figure 7 panel: {self.algorithm}, {self.dataset}",
            headers=(
                "block MB",
                "grid",
                "tasks",
                "P.Frac speedup",
                "Usr.Code speedup",
                "uc decrease",
                "P.Task speedup",
                "CPU P.Task",
                "GPU P.Task",
                "deser+ser/core",
                "status",
            ),
        )
        for p in self.points:
            decrease = p.user_code_speedup_decrease
            table.add_row(
                f"{p.block_mb:.0f}",
                p.grid_label,
                p.num_tasks,
                format_speedup(p.parallel_fraction_speedup),
                format_speedup(p.user_code_speedup),
                f"{decrease:.0%}" if decrease is not None else "-",
                format_speedup(p.parallel_tasks_speedup),
                format_seconds(p.cpu.parallel_task_time if p.cpu.ok else None),
                format_seconds(p.gpu.parallel_task_time if p.gpu.ok else None),
                format_seconds(p.movement_per_core(p.cpu)),
                p.status,
            )
        return table.render()


@dataclass
class Fig7Result:
    """All four Figure 7 panels."""

    panels: list[Fig7Series]

    def panel(self, algorithm: str, dataset: str) -> Fig7Series:
        """Look up one panel."""
        for series in self.panels:
            if series.algorithm == algorithm and series.dataset == dataset:
                return series
        raise KeyError(f"no panel for {algorithm}/{dataset}")

    def render(self) -> str:
        """All panels, concatenated."""
        return "\n\n".join(series.render() for series in self.panels)


def run_fig7_for(
    algorithm: str,
    dataset_key: str,
    grids: tuple[int, ...],
    engine: SweepEngine | None = None,
) -> Fig7Series:
    """Sweep one (algorithm, dataset) panel.

    ``algorithm`` is ``"matmul"`` or ``"kmeans"``; ``dataset_key`` indexes
    :func:`repro.data.paper_datasets`.  Cells are submitted through the
    sweep ``engine`` (a private serial engine when ``None``).
    """
    engine = engine if engine is not None else SweepEngine.serial()
    series = Fig7Series(algorithm=algorithm, dataset=dataset_key)
    cells = cells_product(
        algorithm,
        grids,
        dataset_key=dataset_key,
        n_clusters=10 if algorithm == "kmeans" else 0,
    )
    for cell, cpu, gpu in engine.run_pairs(cells):
        workflow = build_workflow(cell)
        series.points.append(
            Fig7Point(
                grid_label=str(workflow.blocking.grid),
                block_mb=workflow.block_mb,
                num_tasks=workflow.blocking.num_tasks,
                cpu=cpu,
                gpu=gpu,
                primary_task_type=workflow.primary_task_type,
            )
        )
    return series


def run_fig7(engine: SweepEngine | None = None) -> Fig7Result:
    """The full Figure 7: both algorithms, both dataset sizes."""
    engine = engine if engine is not None else SweepEngine.serial()
    panels = [
        run_fig7_for("matmul", "matmul_8gb", MATMUL_GRIDS, engine=engine),
        run_fig7_for("matmul", "matmul_32gb", MATMUL_GRIDS, engine=engine),
        run_fig7_for("kmeans", "kmeans_10gb", KMEANS_GRIDS, engine=engine),
        run_fig7_for("kmeans", "kmeans_100gb", KMEANS_GRIDS, engine=engine),
    ]
    return Fig7Result(panels=panels)
