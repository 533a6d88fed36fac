"""Toward automated design (§5.4.3): a configuration advisor.

The paper closes by proposing "an automated method to handle task-based
workflows in modern, high-compute capacity, CPU-GPU engines" — e.g.
predicting "the ideal block size to maximize the efficiency of each
processor, the level of task computational complexity and parallel
fraction that would make GPUs shine".  This module is that method, built
on the reproduction's own machinery:

1. an **analytic screen** (Amdahl with transfer overhead,
   :mod:`repro.perfmodel.amdahl`) instantly classifies each candidate as
   GPU-worthy or not and prunes configurations whose working set OOMs;
2. a **simulation pass** runs the surviving candidates through the
   discrete-event cluster model, capturing the distributed-level effects
   (task-parallelism limits, storage contention, scheduling overhead) no
   closed form captures;
3. the result is a ranked recommendation with the full evaluation trail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.experiments.fig11 import feature_row
from repro.core.experiments.runners import RunMetrics, run_workflow
from repro.core.report import Table, format_seconds
from repro.hardware import ClusterSpec, StorageKind, minotauro
from repro.perfmodel import CostModel
from repro.perfmodel.amdahl import predict, worth_gpu
from repro.runtime import SchedulingPolicy

#: A workflow family: grid size -> workflow instance.
WorkflowFamily = Callable[[int], object]


@dataclass(frozen=True)
class Candidate:
    """One configuration the advisor evaluated."""

    grid: int
    use_gpu: bool
    storage: StorageKind
    scheduling: SchedulingPolicy
    status: str
    predicted_user_code_speedup: float | None
    parallel_task_time: float | None

    @property
    def label(self) -> str:
        """Human-readable configuration label."""
        processor = "GPU" if self.use_gpu else "CPU"
        return (
            f"grid {self.grid}, {processor}, {self.storage.value}, "
            f"{self.scheduling.value}"
        )


@dataclass
class Recommendation:
    """The advisor's output: the winner plus the full ranking."""

    best: Candidate
    candidates: list[Candidate] = field(default_factory=list)

    def ranking(self) -> list[Candidate]:
        """Feasible candidates, fastest first."""
        feasible = [c for c in self.candidates if c.parallel_task_time is not None]
        return sorted(feasible, key=lambda c: c.parallel_task_time)

    def render(self, top: int = 8) -> str:
        """The recommendation as a table."""
        table = Table(
            title="Advisor ranking (parallel-task time, simulated)",
            headers=("rank", "configuration", "time", "analytic uc speedup"),
        )
        for rank, candidate in enumerate(self.ranking()[:top], start=1):
            predicted = candidate.predicted_user_code_speedup
            table.add_row(
                rank,
                candidate.label,
                format_seconds(candidate.parallel_task_time),
                f"{predicted:.2f}x" if predicted is not None else "-",
            )
        return table.render()


class WorkflowAdvisor:
    """Recommends (grid, processor, storage, scheduler) for a workload."""

    def __init__(self, cluster: ClusterSpec | None = None) -> None:
        self.cluster = cluster or minotauro()
        self.cost_model = CostModel(self.cluster)

    # ----------------------------------------------------- analytic screen
    def screen_gpu(self, workflow) -> dict[str, bool]:
        """Per-task-type analytic verdict: is the GPU worth using at all?

        Mirrors the paper's finding that it is worth using GPUs only when
        the parallel-fraction gain overcomes serial and transfer time.
        """
        verdicts = {}
        for task_type, cost in workflow.task_costs().items():
            verdicts[task_type] = worth_gpu(cost, self.cost_model)
        return verdicts

    def predict_user_code_speedup(self, workflow) -> float | None:
        """Analytic user-code speedup of the workflow's primary task."""
        cost = workflow.task_costs()[workflow.primary_task_type]
        try:
            return predict(cost, self.cost_model).user_code_speedup
        except ValueError:
            return None

    def plan_hybrid(self, workflow) -> frozenset[str]:
        """Task types worth placing on GPUs in hybrid execution.

        A type qualifies when the Amdahl screen predicts a user-code win
        *and* its working set fits device memory — e.g. for Matmul this
        selects ``matmul_func`` and leaves the transfer-bound ``add_func``
        on CPU cores, resolving the Figure 8 tension without changing the
        block size.
        """
        from repro.hardware import GpuOutOfMemoryError

        selected = set()
        for task_type, cost in workflow.task_costs().items():
            if not worth_gpu(cost, self.cost_model):
                continue
            try:
                self.cost_model.check_gpu_memory(cost)
            except GpuOutOfMemoryError:
                continue
            selected.add(task_type)
        return frozenset(selected)

    def fits_gpu(self, workflow) -> bool:
        """Whether the primary task's working set fits device memory."""
        from repro.hardware import GpuOutOfMemoryError

        cost = workflow.task_costs()[workflow.primary_task_type]
        try:
            self.cost_model.check_gpu_memory(cost)
        except GpuOutOfMemoryError:
            return False
        return True

    # ----------------------------------------------- learned-model search
    def recommend_learned(
        self,
        family: WorkflowFamily,
        grids: Sequence[int],
        predictor,
        use_gpu: bool,
        storage: StorageKind = StorageKind.SHARED,
        scheduling: SchedulingPolicy = SchedulingPolicy.GENERATION_ORDER,
        n_clusters: int = 0,
    ) -> list[tuple[int, float]]:
        """Rank grid sizes by a fitted :class:`PerformancePredictor`.

        No simulation runs: each candidate's Table-1 features are derived
        from the workflow's blocking and cost profile and fed to the
        learned model — the paper's §5.4.3 vision of predicting "the ideal
        block size" directly.  Returns ``(grid, predicted_seconds)``
        sorted fastest-first; OOM candidates are excluded.
        """
        from repro.hardware import GpuOutOfMemoryError
        from repro.runtime import Runtime, RuntimeConfig

        ranking: list[tuple[int, float]] = []
        for grid in grids:
            workflow = family(grid)
            cost = workflow.task_costs()[workflow.primary_task_type]
            if use_gpu:
                try:
                    self.cost_model.check_gpu_memory(cost)
                except GpuOutOfMemoryError:
                    continue
                parallel_time = self.cost_model.parallel_fraction_time_gpu(cost)
            else:
                parallel_time = self.cost_model.parallel_fraction_time_cpu(cost)
            # Build the DAG (cheap — no execution) so the shape features
            # match what the training samples measured.
            probe = Runtime(RuntimeConfig())
            workflow.build(probe)
            sample = feature_row(
                workflow,
                n_clusters=n_clusters,
                use_gpu=use_gpu,
                storage=storage,
                scheduling=scheduling,
                parallel_fraction=parallel_time,
                dag_width=probe.graph.width,
                dag_height=probe.graph.height,
            )
            ranking.append((grid, predictor.predict(sample)))
        ranking.sort(key=lambda pair: pair[1])
        return ranking

    # --------------------------------------------------- simulation search
    def recommend(
        self,
        family: WorkflowFamily,
        grids: Sequence[int],
        processors: Sequence[bool] = (False, True),
        storages: Sequence[StorageKind] = (StorageKind.LOCAL, StorageKind.SHARED),
        policies: Sequence[SchedulingPolicy] = tuple(SchedulingPolicy),
        skip_analytically_hopeless: bool = True,
    ) -> Recommendation:
        """Search the configuration space and rank by parallel-task time.

        ``skip_analytically_hopeless`` prunes GPU candidates whose primary
        task the Amdahl screen rejects *and* whose working set OOMs —
        cutting the simulation budget roughly in half on workloads like
        Matmul's add_func regime.
        """
        candidates: list[Candidate] = []
        for grid in grids:
            for use_gpu in processors:
                workflow_probe = family(grid)
                predicted = (
                    self.predict_user_code_speedup(workflow_probe)
                    if use_gpu
                    else None
                )
                if use_gpu and skip_analytically_hopeless:
                    if not self.fits_gpu(workflow_probe):
                        candidates.append(
                            Candidate(
                                grid=grid,
                                use_gpu=True,
                                storage=storages[0],
                                scheduling=policies[0],
                                status="gpu_oom",
                                predicted_user_code_speedup=predicted,
                                parallel_task_time=None,
                            )
                        )
                        continue
                for storage in storages:
                    for policy in policies:
                        metrics = run_workflow(
                            family(grid),
                            use_gpu=use_gpu,
                            storage=storage,
                            scheduling=policy,
                            cluster=self.cluster,
                        )
                        candidates.append(
                            self._candidate(grid, use_gpu, storage, policy,
                                            metrics, predicted)
                        )
        feasible = [c for c in candidates if c.parallel_task_time is not None]
        if not feasible:
            raise ValueError("no feasible configuration found")
        best = min(feasible, key=lambda c: c.parallel_task_time)
        return Recommendation(best=best, candidates=candidates)

    @staticmethod
    def _candidate(
        grid: int,
        use_gpu: bool,
        storage: StorageKind,
        policy: SchedulingPolicy,
        metrics: RunMetrics,
        predicted: float | None,
    ) -> Candidate:
        return Candidate(
            grid=grid,
            use_gpu=use_gpu,
            storage=storage,
            scheduling=policy,
            status=metrics.status,
            predicted_user_code_speedup=predicted,
            parallel_task_time=(
                metrics.parallel_task_time if metrics.ok else None
            ),
        )
