"""Lint and the executor refuse the same runs.

Before its first event, ``Runtime.run()`` refuses a run it could not
complete: a host working set larger than node RAM raises
``HostOutOfMemoryError``, a GPU-placed working set larger than one
device raises ``GpuOutOfMemoryError``, and GPU work on a cluster without
devices raises ``ValueError``.  ``analyze`` reads the same
``RuntimeConfig``, so over drawn graphs and configs it must report an
error exactly for the runs the executor refuses, under the matching code
(WF101, WF102, WF103).
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze
from repro.hardware import GpuOutOfMemoryError, HostOutOfMemoryError, cluster_presets
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig
from repro.sim import SimEngine

_CODE_OF_REFUSAL = {
    HostOutOfMemoryError: "WF101",
    GpuOutOfMemoryError: "WF102",
    ValueError: "WF103",
}

_NAMES = ("map", "reduce", "post")
#: Every GPU-eligible type on devices, none, and two partial placements.
_GPU_TASK_TYPES = (None, frozenset(), frozenset({"map"}), frozenset({"map", "reduce"}))


def _around(limit: int, over: tuple[int, ...]) -> st.SearchStrategy[int]:
    """Working sets up to ``limit`` and the ``over`` ones beyond it."""
    return st.sampled_from((0, limit // 2, limit) + over)


@st.composite
def _runs(draw) -> Runtime:
    preset = draw(st.sampled_from(sorted(cluster_presets())))
    config = RuntimeConfig(
        cluster=cluster_presets()[preset](),
        use_gpu=draw(st.booleans()),
        gpu_task_types=draw(st.sampled_from(_GPU_TASK_TYPES)),
        gpu_overflow_to_cpu=draw(st.booleans()),
    )
    ram, gpu = config.cluster.node.ram_bytes, config.cluster.node.gpu.memory_bytes
    runtime = Runtime(config)
    outputs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        cost = None
        if draw(st.booleans()):
            cost = TaskCost(
                serial_flops=1e8,
                parallel_flops=draw(st.sampled_from((0.0, 1e9))),
                parallel_items=1e6,
                arithmetic_intensity=10.0,
                input_bytes=10**6,
                output_bytes=10**5,
                host_device_bytes=10**6,
                gpu_memory_bytes=draw(_around(gpu, (gpu + 1, 2 * gpu))),
                # One host OOM masks every device check, so draw it less.
                host_memory_bytes=draw(_around(ram, (ram + 1,))),
            )
        inputs = []
        if outputs:
            inputs = draw(st.lists(st.sampled_from(outputs), unique=True))
        outputs += runtime.submit(draw(st.sampled_from(_NAMES)), inputs, cost=cost)
    return runtime


class TestLintPredictsRefusal:
    @given(runtime=_runs())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_error_iff_run_refused(self, runtime):
        report = analyze(runtime.graph, runtime.config)
        started = []
        engine_run = SimEngine.run

        def run(engine):
            started.append(engine)
            engine_run(engine)

        try:
            with mock.patch.object(SimEngine, "run", run):
                runtime.run()
        except tuple(_CODE_OF_REFUSAL) as refusal:
            assert not started, f"{refusal!r} raised after the first event"
            assert report.has_errors, f"run refused with {refusal!r}"
            assert _CODE_OF_REFUSAL[type(refusal)] in report.codes()
        else:
            assert not report.has_errors, report.render()
