"""Self-lint: the analyzer must pass every bundled example workflow.

Builds the workflows the ``examples/`` drivers construct (including the
composite data-science pipeline of ``ds_pipeline.py``, imported from the
example file itself) and asserts the analyzer reports zero errors on each
— the bundled configurations are all feasible by construction.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.algorithms import (
    KMeansWorkflow,
    LinearRegressionWorkflow,
    MatmulFmaWorkflow,
    MatmulWorkflow,
    SyntheticWorkflow,
)
from repro.analysis import analyze
from repro.data import Blocking, GridSpec, paper_datasets
from repro.runtime import Runtime, RuntimeConfig

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example_module(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def _workflows():
    datasets = paper_datasets()
    return [
        # quickstart.py: the paper's motivating K-means configuration.
        KMeansWorkflow(
            datasets["kmeans_10gb"], grid_rows=256, n_clusters=10, iterations=3
        ),
        # block_size_tuning.py / figure sweeps: matmul at several grids.
        MatmulWorkflow(datasets["matmul_8gb"], grid=8),
        MatmulFmaWorkflow(datasets["matmul_8gb"], grid=4),
        LinearRegressionWorkflow(datasets["kmeans_10gb"], grid_rows=64),
        SyntheticWorkflow(datasets["kmeans_10gb"], grid_rows=64, parallel_ratio=0.9),
    ]


class TestExampleWorkflowsSelfLint:
    @pytest.mark.parametrize("use_gpu", [False, True])
    def test_bundled_workflows_have_zero_errors(self, use_gpu):
        for workflow in _workflows():
            runtime = Runtime(RuntimeConfig(use_gpu=use_gpu))
            returned = workflow.build(runtime)
            report = analyze(runtime.graph, runtime.config, returned=returned)
            assert not report.has_errors, (
                f"{workflow.name} (gpu={use_gpu}) has errors:\n{report.render()}"
            )

    @pytest.mark.parametrize("use_gpu", [False, True])
    def test_ds_pipeline_example_self_lints(self, use_gpu):
        ds_pipeline = _example_module("ds_pipeline")
        dataset = paper_datasets()["kmeans_10gb"]
        blocking = Blocking.from_grid(dataset, GridSpec(k=64, l=1))
        runtime = Runtime(RuntimeConfig(use_gpu=use_gpu))
        final = ds_pipeline.build_pipeline(runtime, blocking)
        report = analyze(runtime.graph, runtime.config, returned=final)
        assert not report.has_errors, report.render()

    def test_clean_workflow_reports_no_structural_findings(self):
        runtime = Runtime(RuntimeConfig())
        workflow = KMeansWorkflow(
            paper_datasets()["kmeans_10gb"], grid_rows=64, n_clusters=10
        )
        returned = workflow.build(runtime)
        report = analyze(runtime.graph, runtime.config, returned=returned)
        structural = {c for c in report.codes() if c.startswith("WF0")}
        assert structural == set()
