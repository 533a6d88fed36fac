"""Unit tests for DAG construction and shape analysis."""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perfmodel import TaskCost
from repro.runtime import (
    DataRef,
    DuplicateProducerError,
    Runtime,
    Task,
    TaskGraph,
)


def _task(task_id, inputs=(), n_outputs=1, name="t"):
    outputs = tuple(DataRef(size_bytes=8, name=f"{name}{task_id}.o{i}") for i in range(n_outputs))
    return Task(task_id=task_id, name=name, inputs=tuple(inputs), outputs=outputs)


class TestDependencyDetection:
    def test_producer_consumer_edge(self):
        graph = TaskGraph()
        producer = _task(0)
        graph.add_task(producer)
        consumer = _task(1, inputs=producer.outputs)
        graph.add_task(consumer)
        assert [t.task_id for t in graph.successors(0)] == [1]
        assert [t.task_id for t in graph.predecessors(1)] == [0]

    def test_external_inputs_create_no_edges(self):
        graph = TaskGraph()
        external = DataRef(size_bytes=8)
        graph.add_task(_task(0, inputs=[external]))
        assert graph.num_edges == 0
        assert len(graph.roots()) == 1

    def test_diamond_dependencies(self):
        graph = TaskGraph()
        a = _task(0)
        graph.add_task(a)
        b = _task(1, inputs=a.outputs)
        c = _task(2, inputs=a.outputs)
        graph.add_task(b)
        graph.add_task(c)
        d = _task(3, inputs=b.outputs + c.outputs)
        graph.add_task(d)
        assert graph.num_edges == 4
        assert sorted(t.task_id for t in graph.predecessors(3)) == [1, 2]

    def test_duplicate_task_id_rejected(self):
        graph = TaskGraph()
        graph.add_task(_task(0))
        with pytest.raises(ValueError):
            graph.add_task(_task(0))

    def test_two_refs_from_same_producer_yield_one_edge(self):
        graph = TaskGraph()
        producer = _task(0, n_outputs=2)
        graph.add_task(producer)
        consumer = _task(1, inputs=producer.outputs)
        graph.add_task(consumer)
        assert graph.num_edges == 1
        assert [t.task_id for t in graph.successors(0)] == [1]
        assert [t.task_id for t in graph.predecessors(1)] == [0]

    def test_same_ref_twice_in_inputs_yields_one_edge(self):
        graph = TaskGraph()
        producer = _task(0)
        graph.add_task(producer)
        ref = producer.outputs[0]
        graph.add_task(_task(1, inputs=(ref, ref)))
        assert graph.num_edges == 1

    def test_second_producer_of_a_ref_rejected(self):
        graph = TaskGraph()
        first = _task(0)
        graph.add_task(first)
        imposter = Task(
            task_id=1, name="imposter", inputs=(), outputs=first.outputs
        )
        with pytest.raises(DuplicateProducerError) as excinfo:
            graph.add_task(imposter)
        assert excinfo.value.first_producer == 0
        assert excinfo.value.second_producer == 1
        # The refused task must not be half-inserted.
        assert graph.num_tasks == 1
        assert graph.producer_of(first.outputs[0].ref_id) == 0

    def test_self_consuming_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(_task(0))
        ref = DataRef(size_bytes=8)
        ouroboros = Task(task_id=1, name="ouro", inputs=(ref,), outputs=(ref,))
        with pytest.raises(ValueError, match="consumes its own output"):
            graph.add_task(ouroboros)
        # The refused task must not be half-inserted.
        assert graph.num_tasks == 1
        assert graph.producer_of(ref.ref_id) is None

    def test_ref_produced_later_reads_as_workflow_input(self):
        # A consumer added before the producer of one of its refs does not
        # depend on it, so no edge can point backwards and no cycle forms.
        graph = TaskGraph()
        ref_a = DataRef(size_bytes=8)
        ref_b = DataRef(size_bytes=8)
        graph.add_task(Task(task_id=0, name="a", inputs=(ref_b,), outputs=(ref_a,)))
        graph.add_task(Task(task_id=1, name="b", inputs=(ref_a,), outputs=(ref_b,)))
        assert graph.edges() == [(0, 1)]
        assert graph.levels() == {0: 0, 1: 1}

    def test_producer_of_and_edges_accessors(self):
        graph = TaskGraph()
        producer = _task(0)
        graph.add_task(producer)
        consumer = _task(1, inputs=producer.outputs)
        graph.add_task(consumer)
        assert graph.producer_of(producer.outputs[0].ref_id) == 0
        assert graph.producer_of(10**9) is None
        assert graph.edges() == [(0, 1)]


class TestDotEscaping:
    def test_quotes_and_backslashes_escaped(self):
        graph = TaskGraph()
        graph.add_task(_task(0, name='eval("x\\y")'))
        dot = graph.to_dot()
        assert 'label="eval(\\"x\\\\y\\")' in dot
        # No raw unescaped quote sequence that would break DOT parsing.
        assert 'eval("' not in dot


class TestTopologyAndLevels:
    def _chain(self, length):
        graph = TaskGraph()
        previous = None
        for i in range(length):
            t = _task(i, inputs=previous.outputs if previous else ())
            graph.add_task(t)
            previous = t
        return graph

    def test_chain_height(self):
        graph = self._chain(5)
        assert graph.height == 5
        assert graph.width == 1

    def test_independent_tasks_width(self):
        graph = TaskGraph()
        for i in range(7):
            graph.add_task(_task(i))
        assert graph.width == 7
        assert graph.height == 1

    def test_levels_are_longest_path(self):
        graph = TaskGraph()
        a = _task(0)
        b = _task(1)
        graph.add_task(a)
        graph.add_task(b)
        c = _task(2, inputs=a.outputs)
        graph.add_task(c)
        d = _task(3, inputs=b.outputs + c.outputs)
        graph.add_task(d)
        levels = graph.levels()
        assert levels[0] == 0
        assert levels[1] == 0
        assert levels[2] == 1
        assert levels[3] == 2  # longest path through c

    def test_insertion_order_is_topological(self):
        # Task ids need not follow insertion order; edges always do.
        graph = TaskGraph()
        a = _task(5)
        b = _task(2, inputs=a.outputs)
        c = _task(9, inputs=b.outputs + a.outputs)
        d = _task(0, inputs=c.outputs)
        for t in (a, b, c, d):
            graph.add_task(t)
        order = [t.task_id for t in graph.tasks()]
        assert order == [5, 2, 9, 0]
        assert all(order.index(u) < order.index(v) for u, v in graph.edges())
        assert graph.levels() == {5: 0, 2: 1, 9: 2, 0: 3}
        assert list(graph.levels()) == order

    def test_empty_graph(self):
        graph = TaskGraph()
        assert graph.width == 0
        assert graph.height == 0
        assert graph.levels() == {}

    def test_describe(self):
        graph = self._chain(2)
        text = graph.describe()
        assert "2 tasks" in text
        assert "height 2" in text


@st.composite
def dag_specs(draw, max_tasks=12):
    """A random DAG in submission order: per task, its inputs and its
    output count.  An input is ``(position, output index)`` of an
    earlier task's output, or ``None`` for a fresh workflow input; refs
    may repeat."""
    specs = []
    produced: list[tuple[int, int]] = []
    for position in range(draw(st.integers(0, max_tasks))):
        source = st.none()
        if produced:
            source = st.one_of(st.none(), st.sampled_from(produced))
        inputs = draw(st.lists(source, max_size=4))
        n_outputs = draw(st.integers(0, 2))
        specs.append((inputs, n_outputs))
        produced.extend((position, i) for i in range(n_outputs))
    return specs


def _longest_path_levels(specs) -> list[int]:
    """Levels by longest-path relaxation over the spec's own edges,
    repeated once per task so no visiting order is assumed."""
    preds = [
        {source[0] for source in inputs if source is not None}
        for inputs, _ in specs
    ]
    level = [0] * len(specs)
    for _ in specs:
        for consumer, producers in enumerate(preds):
            for producer in producers:
                level[consumer] = max(level[consumer], level[producer] + 1)
    return level


def _spec_edges(specs) -> set[tuple[int, int]]:
    return {
        (source[0], consumer)
        for consumer, (inputs, _) in enumerate(specs)
        for source in inputs
        if source is not None
    }


def _check_shape(graph: TaskGraph, specs, ids: list[int]) -> None:
    expected = _longest_path_levels(specs)
    assert graph.levels() == {ids[pos]: lvl for pos, lvl in enumerate(expected)}
    assert list(graph.levels()) == [t.task_id for t in graph.tasks()]
    edges = {(ids[u], ids[v]) for u, v in _spec_edges(specs)}
    assert set(graph.edges()) == edges
    assert graph.num_edges == len(edges)
    assert graph.height == (max(expected) + 1 if expected else 0)
    assert graph.width == max(Counter(expected).values(), default=0)


def _refs(inputs, outputs) -> list[DataRef]:
    """The refs a spec's inputs name, given the outputs built so far."""
    return [
        DataRef(size_bytes=8) if source is None
        else outputs[source[0]][source[1]]
        for source in inputs
    ]


class TestShapeProperties:
    """``levels()``, ``width`` and ``height`` equal a longest-path
    recomputation on random DAGs, however the graph was built."""

    @given(dag_specs())
    def test_levels_match_longest_path_through_submit(self, specs):
        runtime = Runtime()
        outputs: list[list[DataRef]] = []
        for position, (inputs, n_outputs) in enumerate(specs):
            outputs.append(
                runtime.submit(
                    f"t{position}", inputs=_refs(inputs, outputs),
                    n_outputs=n_outputs,
                )
            )
        _check_shape(runtime.graph, specs, list(range(len(specs))))

    @given(dag_specs(), st.data())
    def test_levels_match_longest_path_with_ids_out_of_order(self, specs, data):
        ids = data.draw(
            st.lists(
                st.integers(0, 10**6),
                min_size=len(specs),
                max_size=len(specs),
                unique=True,
            )
        )
        graph = TaskGraph()
        outputs: list[tuple[DataRef, ...]] = []
        for position, (inputs, n_outputs) in enumerate(specs):
            task = _task(
                ids[position], inputs=_refs(inputs, outputs), n_outputs=n_outputs
            )
            graph.add_task(task)
            outputs.append(task.outputs)
        _check_shape(graph, specs, ids)


class TestFootprint:
    """The graph's traced memory per task.

    The DAG is shaped like the ``replay`` benchmark's: 125 x 160 tasks
    submitted through :meth:`Runtime.submit`, each reading two distinct
    outputs of the previous level and writing one, with costs drawn
    from a 64-entry palette.  The random choices are drawn before
    tracing starts, so only the graph is counted.
    """

    WIDTH, DEPTH = 125, 160
    #: Traced bytes per task.  Slotted ``Task``/``DataRef`` records, a
    #: shared empty ``kwargs`` and one tuple per task for its inputs,
    #: default args and predecessors read about 645 (Python 3.11);
    #: records with instance dicts and per-task empties read about
    #: 1,110.
    BYTES_PER_TASK_BOUND = 900

    def _build(self) -> tuple[Runtime, int]:
        """The built runtime and the bytes its graph holds."""
        rng = np.random.default_rng(11)
        palette = [
            TaskCost(serial_flops=float(flops), parallel_flops=0.0,
                     parallel_items=0.0, arithmetic_intensity=1e-6,
                     input_bytes=0, output_bytes=0, host_device_bytes=0,
                     gpu_memory_bytes=0)
            for flops in rng.uniform(1e7, 4e7, size=64)
        ]
        width, total = self.WIDTH, self.WIDTH * self.DEPTH
        cost_ix = rng.integers(0, len(palette), size=total).tolist()
        first = rng.integers(0, width, size=total)
        second = ((first + rng.integers(1, width, size=total)) % width).tolist()
        first = first.tolist()
        runtime = Runtime()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            previous = [runtime.register_input(1) for _ in range(width)]
            at = 0
            for _ in range(self.DEPTH):
                current = []
                for _ in range(width):
                    a, b = sorted((first[at], second[at]))
                    (out,) = runtime.submit(
                        "replay", inputs=[previous[a], previous[b]],
                        cost=palette[cost_ix[at]], output_bytes=[0])
                    current.append(out)
                    at += 1
                previous = current
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return runtime, traced

    def test_bytes_per_task(self):
        runtime, traced = self._build()
        assert runtime.graph.num_tasks == self.WIDTH * self.DEPTH
        assert runtime.graph.height == self.DEPTH
        assert traced / runtime.graph.num_tasks < self.BYTES_PER_TASK_BOUND

    def test_levels_are_not_copied(self):
        graph = self._build()[0].graph
        first = graph.levels()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            again = graph.levels()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of 20,000 entries would take several hundred kilobytes.
        assert peak - base < 1024
        assert again == first
        with pytest.raises(TypeError):
            again[0] = 5
