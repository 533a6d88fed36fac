"""The kernel-differential corpus: named cells with recorded oracle digests.

Shared by ``scripts/record_kernel_oracle.py`` (which recorded each cell's
trace digest under the legacy ``reference`` event kernel into
``tests/golden/kernel_oracle_digests.json`` before that kernel was
removed) and ``tests/test_kernel_differential.py`` (which asserts the
batched kernel still reproduces those digests bit for bit).

The ``drain:`` cells cover synchronous task starts (zero-latency
clusters, where a whole same-instant ready set starts in one dispatcher
activation without yielding); the ``fallback:`` cells cover every
configuration whose dispatcher yields before each launch (fault plans,
lineage recovery, stragglers, checkpoint barriers, nonzero dispatch
latency); plus GPU mode and the same-instant completion-cascade shape
that exposed the original bug in the synchronous path.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.algorithms import GeneratedDagWorkflow
from repro.faults import CheckpointPolicy, FaultPlan, NodeFault, RetryPolicy
from repro.hardware import StorageKind, minotauro
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.tracing import trace_digest
from tests.golden_matrix import GOLDEN_FAULT_PLAN, GOLDEN_RETRY_POLICY


def zero_latency_cluster(num_nodes: int = 4):
    """A cluster whose scheduler decisions take no simulated time.

    This is the configuration under which the dispatcher may start tasks
    synchronously, so it is the one that actually exercises the fast path
    being differentially tested.
    """
    return dataclasses.replace(
        minotauro(num_nodes=num_nodes),
        scheduling_latency={policy: 0.0 for policy in SchedulingPolicy},
        locality_scan_seconds_per_task=0.0,
    )


def run_digest(config: RuntimeConfig, workflow: GeneratedDagWorkflow) -> str:
    """Execute the workflow under ``config`` and digest its trace."""
    runtime = Runtime(config)
    workflow.build(runtime)
    result = runtime.run()
    return trace_digest(result.trace, result.failed_task_ids)


#: Fast-path cells: zero-latency clusters where the dispatcher starts
#: tasks synchronously.  Policies x storage x block size x jitter.
DRAIN_CASES = {
    "generation_order-local-small": dict(
        scheduling=SchedulingPolicy.GENERATION_ORDER,
        storage=StorageKind.LOCAL,
        block_mb=0.25,
    ),
    "generation_order-shared-large": dict(
        scheduling=SchedulingPolicy.GENERATION_ORDER,
        storage=StorageKind.SHARED,
        block_mb=4.0,
    ),
    "data_locality-local-large": dict(
        scheduling=SchedulingPolicy.DATA_LOCALITY,
        storage=StorageKind.LOCAL,
        block_mb=4.0,
    ),
    "data_locality-shared-small": dict(
        scheduling=SchedulingPolicy.DATA_LOCALITY,
        storage=StorageKind.SHARED,
        block_mb=0.25,
    ),
    "lifo-local-jitter": dict(
        scheduling=SchedulingPolicy.LIFO,
        storage=StorageKind.LOCAL,
        block_mb=1.0,
        jitter_sigma=0.05,
        jitter_seed=29,
    ),
    "generation_order-local-jitter": dict(
        scheduling=SchedulingPolicy.GENERATION_ORDER,
        storage=StorageKind.LOCAL,
        block_mb=1.0,
        jitter_sigma=0.02,
        jitter_seed=31,
    ),
}

#: Fallback cells: configurations that forbid synchronous starts, so the
#: dispatcher yields before every launch.
FALLBACK_CASES = {
    "default-latency": dict(),
    "faults-retry": dict(
        fault_plan=GOLDEN_FAULT_PLAN,
        retry_policy=GOLDEN_RETRY_POLICY,
    ),
    "recovery-node-loss": dict(
        storage=StorageKind.LOCAL,
        fault_plan=FaultPlan(node_faults=(NodeFault(node=1, at_time=0.2),)),
        retry_policy=RetryPolicy(max_attempts=3, recover_lost_blocks=True),
    ),
    # Recorded with speculative re-execution armed, which never launched
    # a backup in this cell, so the recorded digest is the straggler run.
    "speculation": dict(
        fault_plan=FaultPlan(
            stragglers=(dataclasses.replace(GOLDEN_FAULT_PLAN.stragglers[0]),)
        ),
        retry_policy=RetryPolicy(max_attempts=2),
    ),
    "checkpoint-barriers": dict(
        storage=StorageKind.LOCAL,
        checkpoint_policy=CheckpointPolicy(every_levels=2),
    ),
}


def _drain_case(name: str) -> tuple[Callable[[], RuntimeConfig], GeneratedDagWorkflow]:
    overrides = dict(DRAIN_CASES[name])
    block_mb = overrides.pop("block_mb")

    def make_config() -> RuntimeConfig:
        return RuntimeConfig(
            cluster=zero_latency_cluster(), use_gpu=False, **overrides
        )

    workflow = GeneratedDagWorkflow(
        width=32, depth=12, fan_in=2, block_mb=block_mb, seed=5
    )
    return make_config, workflow


def _fallback_case(
    name: str,
) -> tuple[Callable[[], RuntimeConfig], GeneratedDagWorkflow]:
    overrides = FALLBACK_CASES[name]

    def make_config() -> RuntimeConfig:
        return RuntimeConfig(
            scheduling=SchedulingPolicy.GENERATION_ORDER,
            use_gpu=False,
            **overrides,
        )

    workflow = GeneratedDagWorkflow(
        width=16, depth=8, fan_in=2, block_mb=1.0, seed=9
    )
    return make_config, workflow


def _gpu_case() -> tuple[Callable[[], RuntimeConfig], GeneratedDagWorkflow]:
    def make_config() -> RuntimeConfig:
        return RuntimeConfig(
            cluster=zero_latency_cluster(),
            use_gpu=True,
            gpu_overflow_to_cpu=True,
        )

    workflow = GeneratedDagWorkflow(
        width=16, depth=6, fan_in=2, block_mb=2.0, parallel_ratio=0.9, seed=3
    )
    return make_config, workflow


def _cascade_case(
    policy: SchedulingPolicy,
) -> tuple[Callable[[], RuntimeConfig], GeneratedDagWorkflow]:
    def make_config() -> RuntimeConfig:
        return RuntimeConfig(
            cluster=zero_latency_cluster(num_nodes=2),
            scheduling=policy,
            storage=StorageKind.LOCAL,
            use_gpu=False,
        )

    workflow = GeneratedDagWorkflow(
        width=4, depth=12, fan_in=2, block_mb=4.0, seed=7
    )
    return make_config, workflow


def corpus_cases() -> dict[
    str, tuple[Callable[[], RuntimeConfig], GeneratedDagWorkflow]
]:
    """Every named corpus cell: ``name -> (make_config, workflow)``."""
    cases = {}
    for name in sorted(DRAIN_CASES):
        cases[f"drain:{name}"] = _drain_case(name)
    for name in sorted(FALLBACK_CASES):
        cases[f"fallback:{name}"] = _fallback_case(name)
    cases["gpu:overflow"] = _gpu_case()
    for policy in sorted(SchedulingPolicy, key=lambda p: p.value):
        cases[f"cascade:{policy.value}"] = _cascade_case(policy)
    return cases
