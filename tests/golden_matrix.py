"""The golden-trace matrix: {workload x scheduler x faults} cells.

Shared by ``scripts/record_golden_traces.py`` (which records reference
fingerprints into ``tests/golden/simulator_digests.json``) and
``tests/test_golden_traces.py`` (which asserts the current executor still
reproduces them bit for bit).

The three workloads are chosen to cover every hot code path the fast
dispatch work touches:

* ``matmul4`` — GPU mode with communication overlap and per-core warm-up
  (PCIe transfers, pipeline fill/drain, warm-up stages);
* ``kmeans40`` — GPU mode with overflow-to-CPU and an injected device
  OOM (the ready-queue scan that estimates device wait, forced-CPU
  retries);
* ``wide16`` — a seeded WfBench-style generated DAG on CPUs with
  log-normal jitter (wide ready sets, jittered stage durations).

Fault cells add deterministic task crashes, a node failure, a straggler,
and a probabilistic crash stream, so retry/backoff, dead-node exclusion
and failure bookkeeping are locked down too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algorithms import GeneratedDagWorkflow, KMeansWorkflow, MatmulWorkflow
from repro.data import paper_datasets
from repro.faults import (
    FaultPlan,
    GpuOomFault,
    NodeFault,
    RetryPolicy,
    Straggler,
    TaskCrash,
)
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy, WorkflowResult
from repro.tracing import Stage

POLICIES = (
    SchedulingPolicy.GENERATION_ORDER,
    SchedulingPolicy.DATA_LOCALITY,
    SchedulingPolicy.LIFO,
)

#: One deterministic fault plan shared by every faulted cell; entries
#: that match nothing in a given workload simply never fire.
GOLDEN_FAULT_PLAN = FaultPlan(
    task_crashes=(
        TaskCrash(task_id=3, stage=Stage.SERIAL_FRACTION, attempts=(1,)),
        TaskCrash(
            task_type="partial_sum",
            stage=Stage.PARALLEL_FRACTION,
            attempts=(1,),
        ),
    ),
    node_faults=(NodeFault(node=2, at_time=0.3),),
    gpu_ooms=(GpuOomFault(task_id=12, attempts=(1,)),),
    stragglers=(Straggler(factor=2.0, node=1),),
    crash_probability=0.02,
    seed=13,
)

GOLDEN_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    backoff_base=0.05,
    backoff_jitter=0.5,
)

#: Fault plan for the 10^4-task scale cells.  Unlike the small-matrix
#: plan there is no node loss: without lineage recovery a dead node's
#: blocks fail most of a 10^4-task DAG transitively, which would anchor
#: the fixture on failure bookkeeping instead of large-DAG dispatch.
#: Targeted crashes plus a low-rate probabilistic stream and a straggler
#: keep retry/backoff and jittered re-execution in the digest while the
#: DAG still completes.
SCALE_FAULT_PLAN = FaultPlan(
    task_crashes=(
        TaskCrash(task_id=7, stage=Stage.SERIAL_FRACTION, attempts=(1,)),
        TaskCrash(task_id=1042, stage=Stage.DESERIALIZATION, attempts=(1, 2)),
    ),
    stragglers=(Straggler(factor=1.5, node=1),),
    crash_probability=0.003,
    seed=17,
)


@dataclass(frozen=True)
class GoldenCase:
    """One cell of the golden matrix."""

    key: str
    workload: str
    policy: SchedulingPolicy
    faults: bool
    build: Callable[[Runtime], object]
    config: RuntimeConfig

    def run(self) -> WorkflowResult:
        """Execute the cell's workflow and return the result."""
        runtime = Runtime(self.config)
        self.build(runtime)
        return runtime.run()


def _workloads() -> dict[str, tuple[Callable[[Runtime], object], dict]]:
    datasets = paper_datasets()

    def matmul4(runtime: Runtime):
        return MatmulWorkflow(datasets["matmul_8gb"], grid=4).build(runtime)

    def kmeans40(runtime: Runtime):
        return KMeansWorkflow(
            datasets["kmeans_10gb"], grid_rows=40, n_clusters=10, iterations=3
        ).build(runtime)

    def wide16(runtime: Runtime):
        return GeneratedDagWorkflow(
            width=16, depth=4, fan_in=3, block_mb=4.0, seed=7
        ).build(runtime)

    def scale10k(runtime: Runtime):
        return GeneratedDagWorkflow(
            width=50, depth=200, fan_in=2, block_mb=0.25, seed=21
        ).build(runtime)

    return {
        "matmul4": (
            matmul4,
            dict(
                storage=StorageKind.LOCAL,
                use_gpu=True,
                comm_overlap=True,
                warmup_overhead=0.01,
            ),
        ),
        "kmeans40": (
            kmeans40,
            dict(
                storage=StorageKind.SHARED,
                use_gpu=True,
                gpu_overflow_to_cpu=True,
            ),
        ),
        "wide16": (
            wide16,
            dict(
                storage=StorageKind.LOCAL,
                use_gpu=False,
                jitter_sigma=0.02,
                jitter_seed=123,
            ),
        ),
        "scale10k": (
            scale10k,
            dict(
                storage=StorageKind.LOCAL,
                use_gpu=False,
            ),
        ),
    }


#: Per-workload fault-plan overrides for the faulted cells; workloads
#: not listed use :data:`GOLDEN_FAULT_PLAN`.
WORKLOAD_FAULT_PLANS = {
    "scale10k": SCALE_FAULT_PLAN,
}


def golden_cases() -> list[GoldenCase]:
    """Every cell of the {workload x scheduler x faults} matrix."""
    cases = []
    for workload, (build, overrides) in _workloads().items():
        plan = WORKLOAD_FAULT_PLANS.get(workload, GOLDEN_FAULT_PLAN)
        for policy in POLICIES:
            for faults in (False, True):
                config = RuntimeConfig(
                    scheduling=policy,
                    fault_plan=plan if faults else None,
                    retry_policy=GOLDEN_RETRY_POLICY if faults else None,
                    **overrides,
                )
                key = f"{workload}|{policy.value}|{'faults' if faults else 'clean'}"
                cases.append(
                    GoldenCase(
                        key=key,
                        workload=workload,
                        policy=policy,
                        faults=faults,
                        build=build,
                        config=config,
                    )
                )
    return cases
