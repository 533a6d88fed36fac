"""Tests for the Figure 11 factorial design itself (§5.4)."""

import pytest

from repro.core.experiments import SweepEngine
from repro.core.experiments.engine import CellSpec, cell_digest, cells_product
from repro.core.experiments.fig7 import run_fig7_for
from repro.core.experiments.fig11 import (
    FEATURES,
    PAPER_REFERENCE,
    default_design,
    run_fig11,
)
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy


@pytest.fixture(scope="module")
def design():
    return default_design()


class TestDesignStructure:
    def test_192_samples_like_the_paper(self, design):
        assert len(design) == 192

    def test_all_plans_unique(self, design):
        assert len(set(design)) == len(design)

    def test_covers_both_algorithms(self, design):
        algorithms = {plan.algorithm for plan in design}
        assert algorithms == {"matmul", "kmeans"}

    def test_covers_three_dataset_sizes_per_algorithm(self, design):
        for algorithm, expected in (
            ("matmul", {"matmul_128mb", "matmul_8gb", "matmul_32gb"}),
            ("kmeans", {"kmeans_100mb", "kmeans_10gb", "kmeans_100gb"}),
        ):
            datasets = {
                plan.dataset_key for plan in design if plan.algorithm == algorithm
            }
            assert datasets == expected

    def test_covers_both_processors_evenly(self, design):
        gpu = sum(1 for plan in design if plan.use_gpu)
        assert gpu == len(design) // 2

    def test_covers_storage_and_scheduling_variants(self, design):
        storages = {plan.storage for plan in design}
        policies = {plan.scheduling for plan in design}
        assert storages == {StorageKind.SHARED, StorageKind.LOCAL}
        assert policies == {
            SchedulingPolicy.GENERATION_ORDER,
            SchedulingPolicy.DATA_LOCALITY,
        }

    def test_cluster_count_extras_present(self, design):
        clusters = {plan.n_clusters for plan in design if plan.algorithm == "kmeans"}
        assert clusters == {10, 100, 1000}

    def test_paper_grid_sets(self, design):
        matmul_grids = {
            plan.grid for plan in design if plan.algorithm == "matmul"
        }
        kmeans_grids = {
            plan.grid for plan in design if plan.algorithm == "kmeans"
        }
        assert matmul_grids == {1, 2, 4, 8, 16}
        assert kmeans_grids == {1, 2, 4, 8, 16, 32, 64, 128, 256}


class TestFeatureSchema:
    def test_fifteen_features_like_figure_11(self):
        assert len(FEATURES) == 15

    def test_one_hot_pairs_present(self):
        assert {"cpu", "gpu"} <= set(FEATURES)
        assert {"shared_disk_storage", "local_disk_storage"} <= set(FEATURES)
        assert {
            "task_gen_order_scheduling",
            "data_locality_scheduling",
        } <= set(FEATURES)

    def test_reference_cells_use_known_features(self):
        for a, b in PAPER_REFERENCE:
            assert a in FEATURES, a
            assert b in FEATURES, b

    def test_reference_signs_match_paper_story(self):
        # Positive: time grows with block size / complexity / shared disk.
        assert PAPER_REFERENCE[("parallel_task_exec_time", "block_size")] > 0
        assert PAPER_REFERENCE[
            ("parallel_task_exec_time", "computational_complexity")
        ] > 0
        assert PAPER_REFERENCE[
            ("parallel_task_exec_time", "shared_disk_storage")
        ] > 0
        # Negative: block size vs grid dimension (Eq. 2); GPU vs measured
        # parallel-fraction time (trend (d)).
        assert PAPER_REFERENCE[("block_size", "grid_dimension")] < 0
        assert PAPER_REFERENCE[("gpu", "parallel_fraction")] < 0


def small_plans() -> list[CellSpec]:
    """A base-design subset matching the Figure 7 kmeans_100mb sweep."""
    return cells_product(
        "kmeans", (8, 4), dataset_key="kmeans_100mb", n_clusters=10
    )


class TestEngineReuse:
    def test_base_plans_map_to_figure7_cells(self, design):
        """The §5.4 base sweeps are exactly the Figure 7 cell shapes."""
        fig7_digests = {
            cell_digest(cell)
            for cell in cells_product(
                "kmeans", (256, 128, 64), dataset_key="kmeans_10gb",
                n_clusters=10,
            )
        }
        design_digests = {cell_digest(cell) for cell in design}
        assert fig7_digests <= design_digests

    def test_fig11_reuses_deduplicated_cells(self):
        """Running Figure 11 after Figure 7 on a shared engine must not
        re-simulate the shared configurations."""
        engine = SweepEngine.serial()
        run_fig7_for("kmeans", "kmeans_100mb", (8, 4), engine=engine)
        executed_before = engine.stats.executed
        result = run_fig11(plans=small_plans(), engine=engine)
        assert engine.stats.executed == executed_before
        assert engine.stats.memo_hits >= len(small_plans())
        assert result.n_planned == len(small_plans())

    def test_reused_cells_leave_correlation_inputs_unchanged(self):
        """Deduplication is invisible to the analysis: the feature columns
        match a fresh, engine-free run exactly."""
        fresh = run_fig11(plans=small_plans())
        shared_engine = SweepEngine.serial()
        run_fig7_for("kmeans", "kmeans_100mb", (8, 4), engine=shared_engine)
        reused = run_fig11(plans=small_plans(), engine=shared_engine)
        assert reused.columns == fresh.columns
        assert reused.n_samples == fresh.n_samples
        assert reused.n_oom == fresh.n_oom
