"""Unit tests for task definitions and the @task decorator."""

import pytest

from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime, RuntimeConfig, task
from repro.runtime.runtime import Backend, current_runtime


@task(returns=1)
def double(x):
    return x * 2


@task(returns=2, name="split_halves")
def split(x):
    return x, -x


@task(returns=0)
def consume(x):
    return None


@task(returns=1)
def weighted(x, w=1):
    return x * w


def _cost(out_bytes=16):
    return TaskCost(
        serial_flops=1.0,
        parallel_flops=0.0,
        parallel_items=0.0,
        arithmetic_intensity=0.0,
        input_bytes=8,
        output_bytes=out_bytes,
        host_device_bytes=0,
        gpu_memory_bytes=0,
    )


class TestDecoratorOutsideRuntime:
    def test_runs_directly(self):
        assert double(21) == 42

    def test_multi_return_runs_directly(self):
        assert split(3) == (3, -3)

    def test_no_runtime_active(self):
        assert current_runtime() is None


class TestDecoratorInsideRuntime:
    def test_records_task_and_returns_ref(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            ref = double(x, _cost=_cost())
        assert isinstance(ref, DataRef)
        assert rt.graph.num_tasks == 1
        assert rt.graph.tasks()[0].name == "double"

    def test_multi_return_gives_tuple_of_refs(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            a, b = split(x, _cost=_cost())
        assert isinstance(a, DataRef) and isinstance(b, DataRef)
        assert rt.graph.tasks()[0].name == "split_halves"

    def test_zero_return_gives_none(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            assert consume(x, _cost=_cost(out_bytes=0)) is None

    def test_nested_runtimes_route_to_innermost(self):
        outer = Runtime(RuntimeConfig())
        inner = Runtime(RuntimeConfig())
        x = outer.register_input(8)
        with outer:
            with inner:
                double(x, _cost=_cost())
            assert inner.graph.num_tasks == 1
            assert outer.graph.num_tasks == 0

    def test_context_exit_restores_stack(self):
        rt = Runtime(RuntimeConfig())
        with rt:
            assert current_runtime() is rt
        assert current_runtime() is None

    def test_ref_passed_by_keyword_is_a_dependency(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8, value=3)
        with rt:
            w = double(x, _cost=_cost())
            by_position = weighted(x, w=w, _cost=_cost())
            by_keyword = weighted(x=w, w=x, _cost=_cost())
        assert rt.graph.edges() == [(0, 1), (0, 2)]
        assert rt.graph.levels() == {0: 0, 1: 1, 2: 1}
        assert rt.graph.task(1).inputs == (x, w)
        assert rt.graph.task(2).inputs == (w, x)
        result = rt.run()
        assert result.value_of(by_position) == 18
        assert result.value_of(by_keyword) == 18

    def test_output_bytes_default_splits_cost(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            a, b = split(x, _cost=_cost(out_bytes=100))
        assert a.size_bytes == 50
        assert b.size_bytes == 50

    def test_explicit_output_bytes(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            a, b = split(x, _cost=_cost(), _output_bytes=[10, 20])
        assert (a.size_bytes, b.size_bytes) == (10, 20)


class TestTaskProperties:
    def test_gpu_eligibility_follows_parallel_flops(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        serial_cost = _cost()
        parallel_cost = TaskCost(
            serial_flops=0.0,
            parallel_flops=100.0,
            parallel_items=10.0,
            arithmetic_intensity=1.0,
            input_bytes=8,
            output_bytes=8,
            host_device_bytes=16,
            gpu_memory_bytes=16,
        )
        with rt:
            double(x, _cost=serial_cost)
            double(x, _cost=parallel_cost)
        tasks = rt.graph.tasks()
        assert not tasks[0].gpu_eligible
        assert tasks[1].gpu_eligible

    def test_outputs_record_producer(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with rt:
            ref = double(x, _cost=_cost())
        assert rt.graph.producer_of(ref.ref_id) == rt.graph.tasks()[0].task_id
        assert rt.graph.producer_of(x.ref_id) is None

    def test_input_output_byte_totals(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(24)
        with rt:
            double(x, _cost=_cost(out_bytes=16))
        t = rt.graph.tasks()[0]
        assert t.input_bytes == 24
        assert t.output_bytes == 16

    def test_invalid_returns_rejected(self):
        with pytest.raises(ValueError):
            task(returns=-1)(lambda x: x)


class TestSubmitValidation:
    def test_output_bytes_length_mismatch(self):
        rt = Runtime(RuntimeConfig())
        x = rt.register_input(8)
        with pytest.raises(ValueError):
            rt.submit(name="bad", inputs=[x], n_outputs=2, output_bytes=[1])

    def test_in_process_requires_values(self):
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        x = rt.register_input(8)  # no value bound
        rt.submit(name="f", inputs=[x], fn=lambda v: v)
        with pytest.raises(KeyError):
            rt.run()
