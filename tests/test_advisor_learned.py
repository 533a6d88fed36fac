"""Tests for predictor-driven (no-simulation) advisor recommendations."""

import pytest

from repro.algorithms import KMeansWorkflow
from repro.core.advisor import WorkflowAdvisor
from repro.core.experiments.engine import cells_product
from repro.core.experiments.fig11 import run_fig11
from repro.core.predictor import PerformancePredictor, samples_from_columns
from repro.data import paper_datasets
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy


@pytest.fixture(scope="module")
def fitted_predictor():
    plans = [
        cell
        for dataset in ("kmeans_100mb", "kmeans_10gb")
        for cell in cells_product(
            "kmeans", (128, 64, 32, 16, 8, 4), dataset_key=dataset,
            n_clusters=10,
        )
    ]
    design = run_fig11(plans)
    return PerformancePredictor().fit(samples_from_columns(design.columns))


@pytest.fixture(scope="module")
def advisor():
    return WorkflowAdvisor()


def _family(grid):
    return KMeansWorkflow(
        paper_datasets()["kmeans_10gb"], grid_rows=grid, n_clusters=10,
        iterations=3,
    )


class TestLearnedRecommendation:
    def test_ranking_sorted_by_prediction(self, advisor, fitted_predictor):
        ranking = advisor.recommend_learned(
            _family, grids=(64, 16, 4), predictor=fitted_predictor, use_gpu=False
        )
        times = [t for _g, t in ranking]
        assert times == sorted(times)
        assert {g for g, _t in ranking} == {64, 16, 4}

    def test_agrees_with_simulation_on_the_winner(self, advisor, fitted_predictor):
        grids = (128, 16, 2)
        learned = advisor.recommend_learned(
            _family, grids=grids, predictor=fitted_predictor, use_gpu=False
        )
        simulated = advisor.recommend(
            _family,
            grids=grids,
            processors=(False,),
            storages=(StorageKind.SHARED,),
            policies=(SchedulingPolicy.GENERATION_ORDER,),
        )
        assert learned[0][0] == simulated.best.grid

    def test_oom_grids_excluded_on_gpu(self, advisor, fitted_predictor):
        from repro.algorithms import MatmulWorkflow

        def matmul_family(grid):
            return MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=grid)

        ranking = advisor.recommend_learned(
            matmul_family, grids=(4, 1), predictor=fitted_predictor, use_gpu=True
        )
        assert [g for g, _t in ranking] == [4]

    def test_predictions_positive(self, advisor, fitted_predictor):
        ranking = advisor.recommend_learned(
            _family, grids=(32,), predictor=fitted_predictor, use_gpu=True
        )
        assert ranking[0][1] > 0
