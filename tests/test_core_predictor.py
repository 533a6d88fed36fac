"""Tests for the learned performance model (§5.4.3)."""

import pytest

from repro.core.experiments.engine import cells_product
from repro.core.experiments.fig11 import run_fig11
from repro.core.predictor import (
    PerformancePredictor,
    fit_and_evaluate,
    samples_from_columns,
    train_test_split,
)


def _columns():
    plans = []
    for ds in ("kmeans_100mb", "kmeans_10gb"):
        plans += cells_product(
            "kmeans", (64, 32, 16, 8, 4), dataset_key=ds, n_clusters=10
        )
    return run_fig11(plans).columns


@pytest.fixture(scope="module")
def columns():
    return _columns()


class TestSplitAndSamples:
    def test_samples_from_columns_shape(self, columns):
        samples = samples_from_columns(columns)
        assert len(samples) == len(columns["parallel_task_exec_time"])
        assert set(samples[0]) == set(columns)

    def test_split_partitions(self, columns):
        samples = samples_from_columns(columns)
        train, test = train_test_split(samples, test_fraction=0.25, seed=1)
        assert len(train) + len(test) == len(samples)
        assert test  # non-empty

    def test_split_deterministic(self, columns):
        samples = samples_from_columns(columns)
        a = train_test_split(samples, seed=3)
        b = train_test_split(samples, seed=3)
        assert a == b

    def test_bad_fraction_rejected(self, columns):
        samples = samples_from_columns(columns)
        with pytest.raises(ValueError):
            train_test_split(samples, test_fraction=1.5)


class TestPredictor:
    def test_unfitted_predict_rejected(self, columns):
        predictor = PerformancePredictor()
        with pytest.raises(RuntimeError):
            predictor.predict(samples_from_columns(columns)[0])

    def test_too_few_samples_rejected(self, columns):
        samples = samples_from_columns(columns)[:3]
        with pytest.raises(ValueError):
            PerformancePredictor().fit(samples)

    def test_fit_then_predict_positive(self, columns):
        samples = samples_from_columns(columns)
        predictor = PerformancePredictor().fit(samples)
        assert predictor.is_fitted
        assert predictor.predict(samples[0]) > 0

    def test_in_sample_fit_quality(self, columns):
        samples = samples_from_columns(columns)
        predictor = PerformancePredictor().fit(samples)
        report = predictor.evaluate(samples)
        assert report.r2_log > 0.8

    def test_holdout_generalisation(self, columns):
        _predictor, report = fit_and_evaluate(columns, seed=2)
        assert report.r2_log > 0.6
        assert report.mape < 1.5  # within ~2.5x on a log-linear model
        assert "MAPE" in report.render()

    def test_predictions_track_block_size_trend(self, columns):
        # Within one dataset/processor slice, the fitted model must
        # reproduce the direction of the block-size effect.
        samples = samples_from_columns(columns)
        predictor = PerformancePredictor().fit(samples)
        slice_ = sorted(
            (
                s
                for s in samples
                if s["gpu"] == 0.0 and s["dataset_size"] > 1e9
            ),
            key=lambda s: s["block_size"],
        )
        measured = [s["parallel_task_exec_time"] for s in slice_]
        predicted = [predictor.predict(s) for s in slice_]
        from repro.core.correlation import spearman

        assert spearman(measured, predicted) > 0.7
