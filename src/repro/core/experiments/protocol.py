"""The paper's measurement protocol (§5).

"We ran each experiment six times and discarded the first run to avoid
fluctuations due to warm up processing, such as loading required modules,
compile the GPU kernel, etc."

:func:`run_with_protocol` reproduces that procedure on the simulated
cluster: the first repetition carries the warm-up overhead (module loads
and kernel compilation on every core's first task) and is discarded; the
remaining repetitions run with independent jitter seeds and are averaged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import Callable

from repro.runtime import Runtime, RuntimeConfig
from repro.tracing import parallel_task_metrics

#: Default warm-up cost per core's first task: module imports plus CUDA
#: kernel compilation land in the low seconds on real deployments.
DEFAULT_WARMUP_OVERHEAD = 2.0


@dataclass
class ProtocolResult:
    """Outcome of one repeated-measurement experiment."""

    warmup_makespan: float
    makespans: list[float] = field(default_factory=list)
    parallel_task_times: list[float] = field(default_factory=list)

    @property
    def mean_makespan(self) -> float:
        """Mean makespan over the kept repetitions."""
        return mean(self.makespans)

    @property
    def std_makespan(self) -> float:
        """Population standard deviation over the kept repetitions."""
        return pstdev(self.makespans)

    @property
    def warmup_excess(self) -> float:
        """How much slower the discarded warm-up run was (fraction)."""
        if self.mean_makespan == 0:
            return 0.0
        return self.warmup_makespan / self.mean_makespan - 1.0


def run_with_protocol(
    workflow_factory: Callable[[], object],
    config: RuntimeConfig | None = None,
    runs: int = 6,
    jitter_sigma: float = 0.02,
    warmup_overhead: float = DEFAULT_WARMUP_OVERHEAD,
    base_seed: int = 1,
) -> ProtocolResult:
    """Run an experiment the way the paper did.

    ``runs`` total executions: the first carries ``warmup_overhead`` and
    is discarded; the rest use warm workers and independent jitter seeds.
    """
    if runs < 2:
        raise ValueError("the protocol needs at least two runs")
    base = config or RuntimeConfig()
    result: ProtocolResult | None = None
    makespans: list[float] = []
    parallel_times: list[float] = []
    warmup_makespan = 0.0
    for repetition in range(runs):
        run_config = dataclasses.replace(
            base,
            jitter_sigma=jitter_sigma,
            jitter_seed=base_seed + repetition,
            warmup_overhead=warmup_overhead if repetition == 0 else 0.0,
        )
        workflow = workflow_factory()
        runtime = Runtime(run_config)
        workflow.build(runtime)
        outcome = runtime.run()
        if repetition == 0:
            warmup_makespan = outcome.makespan
            continue
        makespans.append(outcome.makespan)
        parallel_times.append(
            parallel_task_metrics(
                outcome.trace, set(workflow.parallel_task_types)
            ).average_parallel_time
        )
    result = ProtocolResult(
        warmup_makespan=warmup_makespan,
        makespans=makespans,
        parallel_task_times=parallel_times,
    )
    return result
