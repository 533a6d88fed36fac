"""Figure 1 — the motivating experiment.

Distributed K-means on the 10 GB dataset, 256 tasks, on a cluster with 128
CPU cores and 32 GPU devices.  The paper's headline numbers: the GPU is
~5.7x faster on the parallel fraction alone, only ~1.2x faster on the full
task user code (serial fraction and CPU-GPU communication included), and
*slower* than the CPU once tasks are distributed (-1.20x), because only 32
GPU tasks run in parallel against 128 CPU tasks while data movement costs
stay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiments.engine import SweepEngine, cells_product
from repro.core.experiments.runners import CpuGpuPair
from repro.core.report import Table, format_seconds, format_speedup


@dataclass
class Fig1Result(CpuGpuPair):
    """Stage-level GPU-over-CPU speedups at the Figure 1 operating point."""

    @property
    def parallel_fraction_speedup(self) -> float | None:
        """Speedup on the parallel fraction of the task user code alone."""
        return self.stage_speedup("partial_sum", "parallel_fraction")

    @property
    def user_code_speedup(self) -> float | None:
        """Speedup on the total task user code (serial + comm included)."""
        return self.stage_speedup("partial_sum", "user_code")

    def render(self) -> str:
        """Figure 1 as a table."""
        table = Table(
            title=(
                "Figure 1: Distributed K-means at different processing "
                "stages (10 GB, 256 tasks, 128 cores / 32 GPUs)"
            ),
            headers=("processing stage", "CPU time", "GPU time", "GPU speedup"),
        )
        cpu_uc = self.cpu.user_code["partial_sum"]
        gpu_uc = self.gpu.user_code["partial_sum"]
        table.add_row(
            "parallel fraction (single task)",
            format_seconds(cpu_uc.parallel_fraction),
            format_seconds(gpu_uc.parallel_fraction),
            format_speedup(self.parallel_fraction_speedup),
        )
        table.add_row(
            "task user code (single task)",
            format_seconds(cpu_uc.user_code),
            format_seconds(gpu_uc.user_code),
            format_speedup(self.user_code_speedup),
        )
        table.add_row(
            "parallel tasks (distributed)",
            format_seconds(self.cpu.parallel_task_time),
            format_seconds(self.gpu.parallel_task_time),
            format_speedup(self.parallel_tasks_speedup),
        )
        return table.render()


def run_fig1(
    grid_rows: int = 256,
    n_clusters: int = 10,
    engine: SweepEngine | None = None,
) -> Fig1Result:
    """Run the motivating experiment at the paper's operating point."""
    engine = engine if engine is not None else SweepEngine.serial()
    cpu, gpu = engine.run_cells(
        cells_product(
            "kmeans",
            (grid_rows,),
            dataset_key="kmeans_10gb",
            n_clusters=n_clusters,
        )
    )
    return Fig1Result(cpu=cpu, gpu=gpu)
