"""Fast experiment-runner tests on reduced parameter sets.

The full paper-scale sweeps live in ``benchmarks/``; these tests exercise
the same code paths on subsets small enough for the unit suite.
"""

import pytest

from repro.core.experiments import (
    run_fig1,
    run_fig6,
    run_fig7_for,
    run_fig8,
    run_fig9a,
    run_fig9b,
    run_fig10_for,
    run_fig12,
)
from repro.core.experiments.engine import cells_product
from repro.core.experiments.fig11 import run_fig11
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy


class TestFig1:
    def test_headline_shape(self):
        result = run_fig1(grid_rows=64)
        assert result.parallel_fraction_speedup > result.user_code_speedup > 1.0
        assert "Figure 1" in result.render()


class TestFig6:
    def test_shapes_match_paper(self):
        result = run_fig6()
        # Matmul 4x4: 64 matmul_func + 48 add_func (Figure 6b).
        assert result.matmul.tasks_per_type == {"matmul_func": 64, "add_func": 48}
        assert result.matmul.aspect > 1.0  # wide-shallow
        assert result.kmeans.aspect < 1.0  # narrow-deep
        assert result.kmeans.tasks_per_type["partial_sum"] == 12


class TestFig7:
    def test_kmeans_subset(self):
        series = run_fig7_for("kmeans", "kmeans_10gb", grids=(64, 8))
        assert len(series.points) == 2
        speedups = series.speedup_by_block("parallel_fraction_speedup")
        assert all(v is not None and v > 1 for v in speedups.values())
        assert "Figure 7" in series.render()

    def test_matmul_oom_point_reported(self):
        series = run_fig7_for("matmul", "matmul_8gb", grids=(1,))
        assert series.points[0].status == "gpu_oom"
        assert series.points[0].parallel_tasks_speedup is None


class TestFig8:
    def test_complexity_inversion(self):
        result = run_fig8(grids=(8, 4))
        matmul_speedups = [v for v in result.speedups("matmul_func").values()]
        add_speedups = [v for v in result.speedups("add_func").values()]
        assert all(v > 1 for v in matmul_speedups)
        assert all(v < 1 for v in add_speedups)


class TestFig9:
    def test_cluster_scaling(self):
        result = run_fig9a(clusters=(10, 100), grids=(64,))
        assert result.best_speedup(100) > result.best_speedup(10)

    def test_oom_cells_have_status(self):
        result = run_fig9a(clusters=(1000,), grids=(8,))
        assert result.points[0].status in {"gpu_oom", "cpu_oom"}
        assert result.points[0].user_code_speedup is None

    def test_skew_has_no_effect(self):
        result = run_fig9b(grid=8)
        for algorithm in ("matmul", "kmeans"):
            times = result.times_for(algorithm)
            assert times[0.0] == pytest.approx(times[0.5])


class TestFig10:
    def test_local_beats_shared(self):
        panel = run_fig10_for("kmeans", "kmeans_10gb", grids=(64,))
        local = panel.series(
            StorageKind.LOCAL, SchedulingPolicy.GENERATION_ORDER, False
        )[64]
        shared = panel.series(
            StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER, False
        )[64]
        assert local < shared

    def test_single_task_drop(self):
        panel = run_fig10_for(
            "kmeans",
            "kmeans_10gb",
            grids=(2, 1),
            combos=((StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER),),
        )
        series = panel.series(
            StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER, False
        )
        assert series[1] < series[2]

    def test_render_marks_oom(self):
        panel = run_fig10_for(
            "matmul",
            "matmul_8gb",
            grids=(1,),
            combos=((StorageKind.SHARED, SchedulingPolicy.GENERATION_ORDER),),
        )
        assert "OOM" in panel.render()


class TestFig11:
    def test_small_design(self):
        plans = cells_product(
            "kmeans", (8, 4, 2), dataset_key="kmeans_100mb", n_clusters=10
        ) + cells_product("matmul", (4, 2), dataset_key="matmul_128mb")
        result = run_fig11(plans)
        assert result.n_samples == len(plans)
        # Block size and grid dimension are inversely related by Eq. (2).
        assert result.value("block_size", "grid_dimension") < 0
        # CPU and GPU one-hots are perfectly anti-correlated.
        assert result.value("cpu", "gpu") == pytest.approx(-1.0)
        assert "samples" in result.render()


class TestFig12:
    def test_fma_trends_match_matmul(self):
        fma = run_fig12(grids=(8, 4))
        speedups = list(fma.speedups().values())
        assert all(v > 1 for v in speedups)
        assert speedups == sorted(speedups)  # grows with block size


class TestSpeedupDecrease:
    def test_fine_grained_decrease_exceeds_coarse(self):
        # §5.1: communication eats a larger share of the gain at fine
        # grains (~35% vs ~20% in the paper's Matmul panel).
        series = run_fig7_for("matmul", "matmul_8gb", grids=(16, 2))
        by_block = {p.block_mb: p.user_code_speedup_decrease
                    for p in series.points}
        fine = by_block[min(by_block)]
        coarse = by_block[max(by_block)]
        assert fine > coarse > 0.0
        assert 0.1 < fine < 0.5
