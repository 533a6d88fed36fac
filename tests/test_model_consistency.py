"""Consistency contract: simulation == analytics in the uncontended case.

docs/architecture.md promises that single-task analytics (the cost model
and the Amdahl module) agree exactly with what the simulator measures for
one task on an idle cluster.  These tests enforce the contract for every
workload family, on both processor types.
"""

import pytest

from repro.algorithms import (
    KMeansWorkflow,
    MatmulFmaWorkflow,
    MatmulWorkflow,
    SyntheticWorkflow,
)
from repro.core.experiments.runners import run_workflow
from repro.data import DatasetSpec, paper_datasets
from repro.hardware import minotauro
from repro.perfmodel import CostModel


@pytest.fixture(scope="module")
def model():
    return CostModel(minotauro())


def _measured_user_code(workflow, use_gpu):
    metrics = run_workflow(workflow, use_gpu=use_gpu)
    assert metrics.ok
    return metrics.user_code[workflow.primary_task_type]


CASES = [
    (
        "matmul",
        lambda: MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=4),
    ),
    (
        "matmul_fma",
        lambda: MatmulFmaWorkflow(paper_datasets()["matmul_8gb"], grid=4),
    ),
    (
        "kmeans",
        lambda: KMeansWorkflow(
            paper_datasets()["kmeans_10gb"], grid_rows=64, n_clusters=10
        ),
    ),
    (
        "synthetic",
        lambda: SyntheticWorkflow(
            DatasetSpec("syn_cons", rows=2_000_000, cols=100),
            grid_rows=32,
            parallel_ratio=0.6,
        ),
    ),
]


class TestStageConsistency:
    @pytest.mark.parametrize("name,factory", CASES)
    @pytest.mark.parametrize("use_gpu", [False, True])
    def test_measured_stages_match_cost_model(self, model, name, factory, use_gpu):
        workflow = factory()
        cost = workflow.task_costs()[workflow.primary_task_type]
        expected = model.stage_times(cost, use_gpu=use_gpu)
        measured = _measured_user_code(factory(), use_gpu)
        assert measured.serial_fraction == pytest.approx(
            expected.serial_fraction, rel=1e-9, abs=1e-12
        )
        assert measured.parallel_fraction == pytest.approx(
            expected.parallel_fraction, rel=1e-9, abs=1e-12
        )
        # PCIe transfers run through the contended bus; with at most 4
        # concurrent transfers per node capped at the per-transfer rate,
        # the uncontended duration must match the analytic time.
        assert measured.cpu_gpu_comm == pytest.approx(
            expected.cpu_gpu_comm, rel=0.05, abs=1e-6
        )

    @pytest.mark.parametrize("name,factory", CASES)
    def test_measured_user_code_speedup_matches_amdahl(self, model, name, factory):
        from repro.perfmodel.amdahl import predict

        workflow = factory()
        cost = workflow.task_costs()[workflow.primary_task_type]
        predicted = predict(cost, model).user_code_speedup
        cpu = _measured_user_code(factory(), use_gpu=False).user_code
        gpu = _measured_user_code(factory(), use_gpu=True).user_code
        assert cpu / gpu == pytest.approx(predicted, rel=0.05)
