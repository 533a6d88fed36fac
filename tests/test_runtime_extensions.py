"""Tests for the comm-overlap and multi-threaded-CPU-task extensions."""

import pytest

from repro.algorithms import KMeansWorkflow, MatmulWorkflow
from repro.data import paper_datasets
from repro.hardware import minotauro
from repro.perfmodel import CostModel
from repro.runtime import Runtime, RuntimeConfig
from repro.tracing import user_code_metrics


@pytest.fixture(scope="module")
def datasets():
    return paper_datasets()


def _matmul_metrics(datasets, **config):
    rt = Runtime(RuntimeConfig(use_gpu=True, **config))
    MatmulWorkflow(datasets["matmul_8gb"], grid=8).build(rt)
    return user_code_metrics(rt.run().trace)


class TestCommOverlap:
    def test_overlap_reduces_exposed_comm(self, datasets):
        plain = _matmul_metrics(datasets)["matmul_func"]
        overlapped = _matmul_metrics(datasets, comm_overlap=True)["matmul_func"]
        assert overlapped.cpu_gpu_comm < plain.cpu_gpu_comm
        assert overlapped.user_code < plain.user_code

    def test_overlap_cannot_rescue_transfer_bound_tasks(self, datasets):
        # add_func's kernel is too small to hide the transfer behind — the
        # mitigation helps only compute-heavy tasks (paper §2).
        plain = _matmul_metrics(datasets)["add_func"]
        overlapped = _matmul_metrics(datasets, comm_overlap=True)["add_func"]
        assert overlapped.user_code > 0.9 * plain.user_code

    def test_overlap_never_slower(self, datasets):
        for task_type in ("matmul_func", "add_func"):
            plain = _matmul_metrics(datasets)[task_type]
            overlapped = _matmul_metrics(datasets, comm_overlap=True)[task_type]
            assert overlapped.user_code <= plain.user_code * 1.01

    def test_overlap_without_gpu_is_noop(self, datasets):
        rt_a = Runtime(RuntimeConfig(use_gpu=False, comm_overlap=True))
        MatmulWorkflow(datasets["matmul_8gb"], grid=4).build(rt_a)
        rt_b = Runtime(RuntimeConfig(use_gpu=False, comm_overlap=False))
        MatmulWorkflow(datasets["matmul_8gb"], grid=4).build(rt_b)
        assert rt_a.run().makespan == rt_b.run().makespan


class TestCpuThreads:
    def test_thread_efficiency_curve(self):
        model = CostModel(minotauro())
        assert model.cpu_thread_efficiency(1) == 1.0
        assert model.cpu_thread_efficiency(16) < model.cpu_thread_efficiency(2)
        with pytest.raises(ValueError):
            model.cpu_thread_efficiency(0)

    def test_multithreading_speeds_up_one_task(self):
        model = CostModel(minotauro())
        from repro.algorithms.kmeans import partial_sum_cost

        cost = partial_sum_cost(10**6, 100, 100)
        single = model.parallel_fraction_time_cpu(cost, threads=1)
        multi = model.parallel_fraction_time_cpu(cost, threads=8)
        assert multi < single
        # ... but with sub-linear scaling.
        assert multi > single / 8

    def test_oversubscription_hurts_throughput(self, datasets):
        # The paper's §3.3 practice: one task per core beats fat tasks.
        def makespan(threads):
            rt = Runtime(
                RuntimeConfig(use_gpu=False, cpu_threads_per_task=threads)
            )
            KMeansWorkflow(
                datasets["kmeans_10gb"], grid_rows=128, n_clusters=100,
                iterations=1,
            ).build(rt)
            return rt.run().makespan

        assert makespan(1) < makespan(4) < makespan(16)

    def test_threads_validated(self):
        with pytest.raises(ValueError):
            RuntimeConfig(cpu_threads_per_task=0)
        with pytest.raises(ValueError, match="cores of one node"):
            RuntimeConfig(cpu_threads_per_task=17)

    def test_gpu_tasks_unaffected_by_thread_setting(self, datasets):
        def gpu_makespan(threads):
            rt = Runtime(
                RuntimeConfig(use_gpu=True, cpu_threads_per_task=threads)
            )
            MatmulWorkflow(datasets["matmul_8gb"], grid=4).build(rt)
            return rt.run().makespan

        assert gpu_makespan(1) == gpu_makespan(4)
