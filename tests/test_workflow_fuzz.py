"""Workflow-level fuzzing: random configurations must behave sanely.

Hypothesis draws (algorithm, grid, storage, policy, processor) tuples on
small datasets; every draw must either complete with consistent metrics
or fail with one of the two modelled OOM conditions — nothing else.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import (
    KMeansWorkflow,
    MatmulFmaWorkflow,
    MatmulWorkflow,
    SyntheticWorkflow,
)
from repro.core.experiments.runners import run_workflow
from repro.data import DatasetSpec
from repro.faults import (
    FaultPlan,
    NodeFault,
    RetryPolicy,
    Straggler,
    TaskCrash,
)
from repro.hardware import StorageKind, minotauro
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from tests.trace_invariants import assert_trace_invariants

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

matmul_like = st.sampled_from([MatmulWorkflow, MatmulFmaWorkflow])


def _square_dataset(order):
    return DatasetSpec(f"fuzz_m{order}", rows=order, cols=order)


def _tall_dataset(rows):
    return DatasetSpec(f"fuzz_k{rows}", rows=rows, cols=50)


class TestFuzzedConfigurations:
    @given(
        workflow_cls=matmul_like,
        order_exp=st.integers(min_value=9, max_value=13),
        grid=st.sampled_from([1, 2, 4, 8]),
        storage=st.sampled_from(list(StorageKind)),
        policy=st.sampled_from(list(SchedulingPolicy)),
        use_gpu=st.booleans(),
    )
    @settings(**_SETTINGS)
    def test_matmul_family(self, workflow_cls, order_exp, grid, storage,
                           policy, use_gpu):
        workflow = workflow_cls(_square_dataset(2**order_exp), grid=grid)
        metrics = run_workflow(
            workflow_cls(_square_dataset(2**order_exp), grid=grid),
            use_gpu=use_gpu,
            storage=storage,
            scheduling=policy,
        )
        assert metrics.status in {"ok", "gpu_oom", "cpu_oom"}
        if metrics.ok:
            assert metrics.makespan > 0
            assert metrics.parallel_task_time > 0
            assert metrics.num_tasks > 0
            if grid == 1:
                # dislib Matmul: one task; FMA adds the zero accumulator.
                expected = 1 if workflow_cls is MatmulWorkflow else 2
                assert metrics.num_tasks == expected

    @given(
        rows=st.integers(min_value=10_000, max_value=5_000_000),
        grid=st.sampled_from([1, 2, 8, 32]),
        clusters=st.sampled_from([2, 10, 100]),
        storage=st.sampled_from(list(StorageKind)),
        policy=st.sampled_from(list(SchedulingPolicy)),
        use_gpu=st.booleans(),
    )
    @settings(**_SETTINGS)
    def test_kmeans(self, rows, grid, clusters, storage, policy, use_gpu):
        if grid > rows:
            return
        metrics = run_workflow(
            KMeansWorkflow(_tall_dataset(rows), grid_rows=grid,
                           n_clusters=clusters, iterations=2),
            use_gpu=use_gpu,
            storage=storage,
            scheduling=policy,
        )
        assert metrics.status in {"ok", "gpu_oom", "cpu_oom"}
        if metrics.ok:
            # Two iterations: partial_sum levels plus merges.
            assert metrics.dag_height == 4
            assert metrics.makespan >= metrics.parallel_task_time

    @given(
        ratio=st.floats(min_value=0.0, max_value=1.0),
        grid=st.sampled_from([1, 8, 32]),
        use_gpu=st.booleans(),
    )
    @settings(**_SETTINGS)
    def test_synthetic(self, ratio, grid, use_gpu):
        metrics = run_workflow(
            SyntheticWorkflow(_tall_dataset(500_000), grid_rows=grid,
                              parallel_ratio=ratio),
            use_gpu=use_gpu,
        )
        assert metrics.status == "ok"
        user_code = metrics.user_code["synthetic_stage"]
        if ratio == 0.0:
            assert user_code.parallel_fraction == 0.0
        else:
            assert user_code.parallel_fraction > 0.0


def _fuzz_cost():
    return TaskCost(
        serial_flops=5e8,
        parallel_flops=0.0,
        parallel_items=0.0,
        arithmetic_intensity=1.0,
        input_bytes=10**6,
        output_bytes=10**5,
        host_device_bytes=0,
        gpu_memory_bytes=0,
    )


@st.composite
def random_dag(draw):
    """A random layered DAG: (num_roots, [(consumer_inputs...), ...])."""
    num_roots = draw(st.integers(1, 6))
    extra = draw(
        st.lists(st.integers(1, 3), min_size=0, max_size=10)
    )
    return num_roots, extra


@st.composite
def random_fault_plan(draw, num_tasks):
    """A random FaultPlan over a DAG of ``num_tasks`` tasks."""
    crashes = [
        TaskCrash(
            task_id=task_id,
            attempts=tuple(draw(st.sets(st.integers(1, 2), min_size=1, max_size=2))),
        )
        for task_id in draw(
            st.sets(st.integers(0, num_tasks - 1), max_size=3)
        )
    ]
    node_faults = [
        NodeFault(node=node, at_time=draw(st.floats(0.0, 2.0)))
        for node in draw(st.sets(st.integers(0, 3), max_size=2))
    ]
    stragglers = (
        [Straggler(factor=draw(st.floats(1.0, 4.0)))]
        if draw(st.booleans())
        else []
    )
    return FaultPlan(
        task_crashes=crashes,
        node_faults=node_faults,
        stragglers=stragglers,
        crash_probability=draw(st.sampled_from([0.0, 0.0, 0.1, 0.3])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestFaultFuzz:
    """Random DAGs x random FaultPlans: recover or fail deterministically."""

    def _run(self, dag, plan, policy):
        num_roots, extra = dag
        config = RuntimeConfig(
            cluster=minotauro(num_nodes=4),
            scheduling=policy,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.05),
        )
        rt = Runtime(config)
        cost = _fuzz_cost()
        produced = []
        for i in range(num_roots):
            ref = rt.register_input(10**6, name=f"root{i}")
            produced.extend(rt.submit(name="stage", inputs=[ref], cost=cost))
        for fan_in in extra:
            inputs = produced[-fan_in:]
            produced.extend(rt.submit(name="stage", inputs=inputs, cost=cost))
        return rt.run()

    @given(
        dag=random_dag(),
        data=st.data(),
        policy=st.sampled_from(list(SchedulingPolicy)),
    )
    @settings(**_SETTINGS)
    def test_completes_or_fails_deterministically(self, dag, data, policy):
        num_roots, extra = dag
        plan = data.draw(random_fault_plan(num_roots + len(extra)))
        first = self._run(dag, plan, policy)
        second = self._run(dag, plan, policy)

        # Same seed, same plan -> bit-identical outcome.
        assert first.failed == second.failed
        assert first.failed_task_ids == second.failed_task_ids
        assert first.makespan == second.makespan
        assert first.attempts == second.attempts

        # Whatever happened, the trace stays structurally sound.
        assert_trace_invariants(first.trace)

        total = num_roots + len(extra)
        done = {t.task_id for t in first.trace.tasks}
        if first.failed:
            # Failed and completed tasks partition the DAG.
            assert set(first.failed_task_ids) | done == set(range(total))
            assert not set(first.failed_task_ids) & done
        else:
            assert done == set(range(total))
            assert first.makespan > 0

    @given(dag=random_dag(), seed=st.integers(0, 2**16))
    @settings(**_SETTINGS)
    def test_empty_plan_matches_fault_free_run(self, dag, seed):
        # An empty FaultPlan must not perturb scheduling or timing.
        plain = self._run(dag, None, SchedulingPolicy.GENERATION_ORDER)
        empty = self._run(
            dag, FaultPlan(seed=seed), SchedulingPolicy.GENERATION_ORDER
        )
        assert not plain.failed and not empty.failed
        assert plain.makespan == empty.makespan
        fingerprint = lambda r: [
            (t.task_id, t.start, t.end, t.node, t.core) for t in r.trace.tasks
        ]
        assert fingerprint(plain) == fingerprint(empty)
