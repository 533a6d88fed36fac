"""Acceptance tests: the paper's headline shapes must reproduce.

These run real (simulated-backend) experiments at paper scale and assert
the qualitative results of the evaluation section — who wins, by roughly
what factor, where the crossovers and OOM regions fall.  Absolute times
are simulator outputs and are not compared to the paper's wall-clock.
"""

import pytest

from repro.core.experiments import (
    run_fig1,
    run_fig7_for,
    run_fig8,
    run_fig9a,
    run_fig12,
)
from repro.core.observations import check_o1, check_o3, check_o4


class TestFigure1:
    @pytest.fixture(scope="class")
    def fig1(self):
        return run_fig1()

    def test_parallel_fraction_speedup_near_paper(self, fig1):
        # Paper: 5.69x.
        assert 4.5 <= fig1.parallel_fraction_speedup <= 7.0

    def test_user_code_speedup_marginal(self, fig1):
        # Paper: 1.24x — serial fraction and communication eat the gain.
        assert 1.0 < fig1.user_code_speedup <= 1.6

    def test_distributed_gpu_loses(self, fig1):
        # Paper: -1.20x — GPUs are slower once tasks are distributed.
        assert fig1.parallel_tasks_speedup < 1.0


class TestFigure8:
    @pytest.fixture(scope="class")
    def fig8(self):
        return run_fig8(grids=(16, 8, 4, 2))

    def test_matmul_func_scales_to_about_21x(self, fig8):
        speedups = fig8.speedups("matmul_func")
        values = [v for v in speedups.values() if v is not None]
        assert values == sorted(values)  # monotone in block size
        assert 17.0 <= max(values) <= 26.0  # paper: "as high as 21x"

    def test_add_func_never_wins(self, fig8):
        assert check_o3(fig8).passed

    def test_fine_grained_speedup_collapses(self, fig8):
        speedups = fig8.speedups("matmul_func")
        finest = speedups[min(speedups)]
        coarsest = speedups[max(speedups)]
        assert finest < coarsest / 2


class TestFigure9a:
    @pytest.fixture(scope="class")
    def fig9a(self):
        return run_fig9a(clusters=(10, 100, 1000), grids=(256, 64, 16))

    def test_speedup_grows_with_clusters(self, fig9a):
        assert check_o4(fig9a).passed

    def test_10_clusters_marginal(self, fig9a):
        # Paper: "no more than 1.5x" for 10 clusters.
        assert fig9a.best_speedup(10) < 1.6

    def test_1000_clusters_several_fold(self, fig9a):
        # Paper: up to ~7x higher than the 10-cluster scenario, bounded by
        # the parallel-fraction ceiling.
        assert fig9a.best_speedup(1000) / fig9a.best_speedup(10) >= 3.0

    def test_stage_ordering_at_10_clusters(self, fig9a):
        # Paper: parallel fraction < CPU-GPU comm < serial fraction.
        point = next(
            p for p in fig9a.points if p.n_clusters == 10 and p.grid == 64
        )
        assert (
            point.stage(True, "partial_sum", "parallel_fraction")
            < point.stage(True, "partial_sum", "cpu_gpu_comm")
            < point.stage(True, "partial_sum", "serial_fraction")
        )

    def test_oom_region_grows_with_clusters(self, fig9a):
        oom_grids = {
            k: {p.grid for p in fig9a.points if p.n_clusters == k and p.status != "ok"}
            for k in (10, 100, 1000)
        }
        assert oom_grids[10] == set()
        assert oom_grids[1000] >= oom_grids[100]
        assert oom_grids[1000]


class TestFigure7:
    @pytest.fixture(scope="class")
    def kmeans_panel(self):
        return run_fig7_for("kmeans", "kmeans_10gb", grids=(256, 64, 16, 4))

    def test_o1_user_code_flat_for_kmeans(self, kmeans_panel):
        assert check_o1(kmeans_panel).passed

    def test_parallel_fraction_speedup_scales_with_block(self, kmeans_panel):
        speedups = kmeans_panel.speedup_by_block("parallel_fraction_speedup")
        values = [speedups[k] for k in sorted(speedups)]
        assert values[0] < values[-1]

    def test_matmul_32gb_oom_beyond_4x4(self):
        series = run_fig7_for("matmul", "matmul_32gb", grids=(4, 2))
        by_grid = {p.grid_label: p.status for p in series.points}
        # §5.1.3: the 32 GB dataset cannot test blocks beyond the 4x4 grid.
        assert by_grid["4 x 4"] == "ok"
        assert by_grid["2 x 2"] == "gpu_oom"

    def test_kmeans_100gb_oom_beyond_16x1(self):
        series = run_fig7_for("kmeans", "kmeans_100gb", grids=(16, 8))
        by_grid = {p.grid_label: p.status for p in series.points}
        assert by_grid["16 x 1"] == "ok"
        assert by_grid["8 x 1"] == "gpu_oom"

    def test_larger_dataset_increases_stage_speedups(self):
        small = run_fig7_for("kmeans", "kmeans_10gb", grids=(64,))
        large = run_fig7_for("kmeans", "kmeans_100gb", grids=(64,))
        # §5.1.3: bigger blocks at the same grid -> higher occupancy.
        assert (
            large.points[0].parallel_fraction_speedup
            > small.points[0].parallel_fraction_speedup
        )


class TestFigure12:
    def test_fma_repeats_matmul_trends(self):
        fma = run_fig12(grids=(16, 4, 2))
        mm = run_fig8(grids=(16, 4, 2))
        fma_speedups = sorted(v for v in fma.speedups().values() if v)
        mm_speedups = sorted(v for v in mm.speedups("matmul_func").values() if v)
        # Same direction and comparable magnitude at every block size.
        for f, m in zip(fma_speedups, mm_speedups):
            assert f == pytest.approx(m, rel=0.25)
