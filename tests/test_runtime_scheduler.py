"""Unit tests for the scheduling policies."""

import pytest

import repro.runtime.scheduler as scheduler_module
from repro.runtime import DataRef, SchedulingPolicy, Task
from repro.runtime.scheduler import (
    DataLocalityScheduler,
    GenerationOrderScheduler,
    ReadyParts,
    make_scheduler,
)


class FakeCluster:
    """A ClusterView stub with explicit per-node availability."""

    def __init__(self, free_cores, free_gpus=None):
        self.free_cores = free_cores
        self.free_gpus = free_gpus or [1] * len(free_cores)

    def num_nodes(self):
        return len(self.free_cores)

    def has_free_slot(self, node, needs_gpu, ram_bytes=0):
        if self.free_cores[node] < 1:
            return False
        if needs_gpu and self.free_gpus[node] < 1:
            return False
        return True


def _task(task_id, input_homes=(), parallel=False):
    from repro.perfmodel import TaskCost

    inputs = tuple(
        DataRef(size_bytes=100, home_node=home) for home in input_homes
    )
    cost = TaskCost(
        serial_flops=1.0,
        parallel_flops=100.0 if parallel else 0.0,
        parallel_items=10.0 if parallel else 0.0,
        arithmetic_intensity=1.0,
        input_bytes=100,
        output_bytes=10,
        host_device_bytes=0,
        gpu_memory_bytes=0,
    )
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        inputs=inputs,
        outputs=(DataRef(size_bytes=10),),
        cost=cost,
    )



def _never_gpu(task):
    return False


def _eligible_gpu(task):
    return task.gpu_eligible


class TestGenerationOrder:
    def test_picks_head_of_queue(self):
        scheduler = GenerationOrderScheduler()
        ready = [_task(3), _task(7)]
        choice = scheduler.select(ready, FakeCluster([1, 1]), _never_gpu)
        assert choice.task.task_id == 3

    def test_round_robin_spreads_nodes(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([2, 2, 2])
        nodes = [
            scheduler.select([_task(i)], cluster, _never_gpu).node
            for i in range(3)
        ]
        assert nodes == [0, 1, 2]

    def test_skips_full_nodes(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([0, 0, 1])
        choice = scheduler.select([_task(0)], cluster, _never_gpu)
        assert choice.node == 2

    def test_returns_none_when_cluster_full(self):
        scheduler = GenerationOrderScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0, 0]), _never_gpu) is None

    def test_returns_none_when_queue_empty(self):
        scheduler = GenerationOrderScheduler()
        assert scheduler.select([], FakeCluster([1]), _never_gpu) is None

    def test_gpu_requirement_respected(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([1, 1], free_gpus=[0, 1])
        choice = scheduler.select([_task(0, parallel=True)], cluster, _eligible_gpu)
        assert choice.node == 1

    def test_serial_task_needs_no_gpu_even_in_gpu_mode(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([1], free_gpus=[0])
        choice = scheduler.select([_task(0, parallel=False)], cluster, _eligible_gpu)
        assert choice is not None


class TestDataLocality:
    def test_prefers_owner_node(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 1, 1])
        choice = scheduler.select([_task(0, input_homes=[2])], cluster, _never_gpu)
        assert choice.node == 2

    def test_majority_bytes_win(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 1])
        task = _task(0, input_homes=[0, 1, 1])
        choice = scheduler.select([task], cluster, _never_gpu)
        assert choice.node == 1

    def test_falls_back_when_owner_busy(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 0])
        choice = scheduler.select([_task(0, input_homes=[1])], cluster, _never_gpu)
        assert choice.node == 0

    def test_scans_past_blocked_tasks(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1], free_gpus=[0])
        blocked = _task(0, parallel=True)
        runnable = _task(1, input_homes=[0], parallel=False)
        choice = scheduler.select([blocked, runnable], cluster, _eligible_gpu)
        assert choice.task.task_id == 1

    def test_returns_none_when_cluster_full(self):
        scheduler = DataLocalityScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0]), _never_gpu) is None


class TestLocalityProbeCount:
    """A saturated or GPU-bound cluster costs the locality policy a
    bounded number of probes per call, however long the ready queue."""

    class CountingIndex:
        def __init__(self):
            self.bytes_map_calls = 0

        def bytes_map(self, task_id):
            self.bytes_map_calls += 1
            return {}

    @staticmethod
    def _select(monkeypatch, cluster, ready, requires_gpu):
        """One ``select`` call: its choice and its ``node_usable`` probes."""
        calls = []
        original = scheduler_module.node_usable

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "node_usable", counted)
        choice = DataLocalityScheduler().select(ready, cluster, requires_gpu)
        return choice, len(calls)

    def _probes(self, monkeypatch, cluster, ready, requires_gpu):
        index = self.CountingIndex()
        cluster.locality_index = index
        choice, probes = self._select(monkeypatch, cluster, ready, requires_gpu)
        assert choice is None
        assert index.bytes_map_calls == 0
        return probes

    @pytest.mark.parametrize(
        "free_cores, free_gpus, parallel, requires_gpu",
        [
            pytest.param([0] * 8, [1] * 8, False, _never_gpu, id="no-free-core"),
            pytest.param([1] * 8, [0] * 8, True, _eligible_gpu, id="no-free-gpu"),
        ],
    )
    def test_probes_do_not_grow_with_ready_queue(
        self, monkeypatch, free_cores, free_gpus, parallel, requires_gpu
    ):
        probes = [
            self._probes(
                monkeypatch,
                FakeCluster(free_cores, free_gpus),
                [_task(i, input_homes=[i % 8], parallel=parallel)
                 for i in range(num_ready)],
                requires_gpu,
            )
            for num_ready in (50, 500)
        ]
        assert probes[0] == probes[1]

    def test_gpu_bound_cluster_costs_the_same_at_any_queue_length(
        self, monkeypatch
    ):
        # Every GPU is busy and every node has a free core: N GPU tasks
        # queue ahead of one CPU task.  The saturated-cluster exit cannot
        # fire (the CPU task fits), so a walk of the ready queue would ask
        # for all N GPU tasks' requirements before reaching it.  Filed the
        # way the executor files them, by (cost, GPU intent), they are one
        # part, and the call costs the same at any N.
        costs = []
        for num_gpu_tasks in (50, 500):
            tasks = [
                _task(i, input_homes=[i % 8], parallel=True)
                for i in range(num_gpu_tasks)
            ]
            cpu_task = _task(num_gpu_tasks, input_homes=[0])
            tasks.append(cpu_task)
            ready = ReadyParts({task.task_id: task for task in tasks}.__getitem__)
            for task in tasks:
                ready.add(task.task_id, ready.part((task.cost, task.gpu_eligible)))
            asked = []

            def requires_gpu(task):
                asked.append(task.task_id)
                return task.gpu_eligible

            choice, probes = self._select(
                monkeypatch, FakeCluster([1] * 8, [0] * 8), ready, requires_gpu
            )
            assert choice.task is cpu_task
            costs.append(len(asked) + probes)
        assert costs[0] == costs[1]


class TestSelectBatch:
    @staticmethod
    def _setup(policy):
        ready = [_task(i, input_homes=[i % 3]) for i in range(8)]
        return make_scheduler(policy), ready, FakeCluster([2, 1, 2])

    @staticmethod
    def _reserve(assignment, ready, cluster):
        cluster.free_cores[assignment.node] -= 1
        ready.remove(assignment.task)
        return assignment.task.task_id, assignment.node

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_generator_matches_repeated_select(self, policy):
        scheduler, ready, cluster = self._setup(policy)
        expected = []
        while True:
            assignment = scheduler.select(ready, cluster, _never_gpu)
            if assignment is None:
                break
            expected.append(self._reserve(assignment, ready, cluster))

        batch_scheduler, batch_ready, batch_cluster = self._setup(policy)
        placed = [
            self._reserve(assignment, batch_ready, batch_cluster)
            for assignment in batch_scheduler.select_batch(
                batch_ready, batch_cluster, _never_gpu
            )
        ]
        assert placed == expected
        assert batch_scheduler._next_node == scheduler._next_node
        # Five cores for eight tasks: the generator stops once nothing fits.
        assert len(placed) == 5
        assert len(batch_ready) == 3
        assert batch_cluster.free_cores == [0, 0, 0]
        assert list(
            batch_scheduler.select_batch(batch_ready, batch_cluster, _never_gpu)
        ) == []


class TestFactory:
    def test_make_scheduler(self):
        assert isinstance(
            make_scheduler(SchedulingPolicy.GENERATION_ORDER),
            GenerationOrderScheduler,
        )
        assert isinstance(
            make_scheduler(SchedulingPolicy.DATA_LOCALITY), DataLocalityScheduler
        )

    def test_policy_labels(self):
        assert SchedulingPolicy.GENERATION_ORDER.label == "task generation order"
        assert SchedulingPolicy.DATA_LOCALITY.label == "data locality"


class TestLifo:
    def test_picks_tail_of_queue(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        ready = [_task(3), _task(7)]
        choice = scheduler.select(ready, FakeCluster([1, 1]), _never_gpu)
        assert choice.task.task_id == 7

    def test_round_robin_nodes(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        cluster = FakeCluster([2, 2])
        nodes = [
            scheduler.select([_task(i)], cluster, _never_gpu).node
            for i in range(2)
        ]
        assert nodes == [0, 1]

    def test_returns_none_when_full(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0]), _never_gpu) is None

    def test_factory_and_label(self):
        from repro.runtime.scheduler import LifoScheduler

        assert isinstance(make_scheduler(SchedulingPolicy.LIFO), LifoScheduler)
        assert SchedulingPolicy.LIFO.label == "LIFO"

    def test_end_to_end_lifo_run(self):
        from repro.perfmodel import TaskCost
        from repro.runtime import Runtime, RuntimeConfig

        rt = Runtime(RuntimeConfig(scheduling=SchedulingPolicy.LIFO))
        cost = TaskCost(
            serial_flops=1e9, parallel_flops=0, parallel_items=0,
            arithmetic_intensity=0, input_bytes=10**6, output_bytes=10**5,
            host_device_bytes=0, gpu_memory_bytes=0,
        )
        for i in range(20):
            ref = rt.register_input(10**6, name=f"in{i}")
            rt.submit(name="w", inputs=[ref], cost=cost)
        assert len(rt.run().trace.tasks) == 20
