"""Unit tests for experiment result dataclasses and runner helpers."""

import pytest

from repro.core.experiments.fig7 import Fig7Point, Fig7Series
from repro.core.experiments.fig10 import Fig10Cell, Fig10Result
from repro.core.experiments.runners import (
    STATUS_CPU_OOM,
    STATUS_GPU_OOM,
    STATUS_OK,
    CpuGpuPair,
    RunMetrics,
    speedup,
)
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy
from repro.tracing import DataMovementMetrics
from repro.tracing.aggregate import UserCodeMetrics


def _metrics(status=STATUS_OK, use_gpu=False, ptask=1.0, movement=None, uc=None):
    return RunMetrics(
        status=status,
        use_gpu=use_gpu,
        storage=StorageKind.SHARED,
        scheduling=SchedulingPolicy.GENERATION_ORDER,
        parallel_task_time=ptask,
        movement=movement,
        user_code=uc or {},
    )


def _uc(serial=1.0, parallel=2.0, comm=0.5):
    return UserCodeMetrics(
        task_type="t", num_tasks=4,
        serial_fraction=serial, parallel_fraction=parallel, cpu_gpu_comm=comm,
    )


class TestSpeedupHelper:
    def test_normal(self):
        assert speedup(10.0, 5.0) == 2.0

    def test_zero_values_give_none(self):
        assert speedup(0.0, 5.0) is None
        assert speedup(5.0, 0.0) is None


class TestRunMetrics:
    def test_ok_property(self):
        assert _metrics().ok
        assert not _metrics(status=STATUS_GPU_OOM).ok
        assert not _metrics(status=STATUS_CPU_OOM).ok


class TestCpuGpuPair:
    def _pair(self, cpu_status=STATUS_OK, gpu_status=STATUS_OK,
              cpu_uc=None, gpu_uc=None):
        return CpuGpuPair(
            cpu=_metrics(status=cpu_status, ptask=4.0,
                         uc=cpu_uc if cpu_uc is not None else {"t": _uc()}),
            gpu=_metrics(status=gpu_status, use_gpu=True, ptask=2.0,
                         uc=gpu_uc if gpu_uc is not None
                         else {"t": _uc(parallel=0.5)}),
        )

    def test_status_ok(self):
        assert self._pair().status == STATUS_OK

    def test_status_prefers_cpu_failure(self):
        pair = self._pair(cpu_status=STATUS_CPU_OOM, gpu_status=STATUS_GPU_OOM)
        assert pair.status == STATUS_CPU_OOM

    def test_status_gpu_failure(self):
        assert self._pair(gpu_status=STATUS_GPU_OOM).status == STATUS_GPU_OOM

    @pytest.mark.parametrize(
        "cpu_status, gpu_status",
        [(STATUS_CPU_OOM, STATUS_OK), (STATUS_OK, STATUS_GPU_OOM),
         (STATUS_OK, STATUS_CPU_OOM)],
    )
    def test_oom_on_either_side_gives_no_speedup(self, cpu_status, gpu_status):
        pair = self._pair(cpu_status=cpu_status, gpu_status=gpu_status)
        for attr in ("parallel_fraction", "user_code", "cpu_gpu_comm"):
            assert pair.stage_speedup("t", attr) is None
        assert pair.parallel_tasks_speedup is None

    def test_oom_side_has_no_stage(self):
        pair = self._pair(gpu_status=STATUS_GPU_OOM)
        assert pair.stage(True, "t", "parallel_fraction") is None
        assert pair.stage(False, "t", "parallel_fraction") == 2.0

    @pytest.mark.parametrize("ran_on_gpu", [False, True])
    def test_task_type_on_one_side_only_gives_none(self, ran_on_gpu):
        both = {"t": _uc(), "u": _uc()}
        pair = self._pair(gpu_uc=both) if ran_on_gpu else self._pair(cpu_uc=both)
        assert pair.stage(ran_on_gpu, "u", "user_code") is not None
        assert pair.stage(not ran_on_gpu, "u", "user_code") is None
        assert pair.stage_speedup("u", "user_code") is None
        assert pair.stage_speedup("t", "user_code") is not None

    def test_speedups(self):
        pair = self._pair()
        assert pair.stage_speedup("t", "parallel_fraction") == pytest.approx(4.0)
        assert pair.stage_speedup("t", "user_code") == pytest.approx(3.5 / 2.0)
        assert pair.parallel_tasks_speedup == pytest.approx(2.0)


class TestFig7Point:
    def _point(self, cpu_status=STATUS_OK, gpu_status=STATUS_OK):
        return Fig7Point(
            grid_label="4 x 4",
            block_mb=100.0,
            num_tasks=16,
            cpu=_metrics(status=cpu_status, uc={"t": _uc()}),
            gpu=_metrics(status=gpu_status, use_gpu=True,
                         uc={"t": _uc(parallel=0.5)}),
            primary_task_type="t",
        )

    def test_speedups_none_on_oom(self):
        point = self._point(gpu_status=STATUS_GPU_OOM)
        assert point.parallel_fraction_speedup is None
        assert point.user_code_speedup is None
        assert point.parallel_tasks_speedup is None

    def test_speedup_values(self):
        point = self._point()
        assert point.parallel_fraction_speedup == pytest.approx(4.0)
        # user code: (1 + 2 + 0.5) / (1 + 0.5 + 0.5)
        assert point.user_code_speedup == pytest.approx(3.5 / 2.0)

    def test_movement_per_core(self):
        movement = DataMovementMetrics(
            num_cores=4, deserialization_per_core=1.0, serialization_per_core=0.5
        )
        point = Fig7Point(
            grid_label="g", block_mb=1.0, num_tasks=1,
            cpu=_metrics(movement=movement, uc={"t": _uc()}),
            gpu=_metrics(use_gpu=True, uc={"t": _uc()}),
            primary_task_type="t",
        )
        assert point.movement_per_core(point.cpu) == pytest.approx(1.5)
        assert point.movement_per_core(point.gpu) is None  # no movement set


class TestFig7Series:
    def test_speedup_by_block(self):
        series = Fig7Series(algorithm="a", dataset="d")
        for block_mb in (10.0, 20.0):
            series.points.append(
                Fig7Point(
                    grid_label="g", block_mb=block_mb, num_tasks=2,
                    cpu=_metrics(uc={"t": _uc()}),
                    gpu=_metrics(use_gpu=True, uc={"t": _uc(parallel=1.0)}),
                    primary_task_type="t",
                )
            )
        mapping = series.speedup_by_block("user_code_speedup")
        assert set(mapping) == {10.0, 20.0}


class TestFig10Result:
    def _result(self):
        result = Fig10Result(algorithm="a", dataset="d")
        for grid, value in ((4, 2.0), (2, None)):
            metrics = _metrics(
                status=STATUS_OK if value is not None else STATUS_GPU_OOM,
                ptask=value or 0.0,
            )
            result.cells.append(
                Fig10Cell(
                    storage=StorageKind.SHARED,
                    scheduling=SchedulingPolicy.GENERATION_ORDER,
                    grid=grid,
                    block_mb=float(grid),
                    use_gpu=False,
                    metrics=metrics,
                )
            )
        return result

    def test_series_lookup(self):
        series = self._result().series(
            StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER, False
        )
        assert series[4] == 2.0
        assert series[2] is None

    def test_render_includes_oom(self):
        assert "OOM" in self._result().render()

    def test_panel_lookup_raises_for_unknown(self):
        from repro.core.experiments.fig7 import Fig7Result

        result = Fig7Result(panels=[])
        with pytest.raises(KeyError):
            result.panel("matmul", "nope")
