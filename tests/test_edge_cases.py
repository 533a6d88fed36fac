"""Edge-case tests across subsystems."""

import pytest

from repro.data import Blocking, DatasetSpec, GridSpec
from repro.sim import BandwidthResource, SimEngine


class TestBandwidthResourceEdges:
    def test_current_rate_idle_is_zero(self):
        resource = BandwidthResource(SimEngine(), 100.0)
        assert resource.current_rate() == 0.0

    def test_current_rate_respects_cap(self):
        sim = SimEngine()
        resource = BandwidthResource(sim, 100.0, per_job_cap=10.0)
        resource.submit(1000.0, lambda: None)
        assert resource.current_rate() == 10.0

    def test_peak_jobs_tracks_concurrency(self):
        sim = SimEngine()
        resource = BandwidthResource(sim, 100.0)
        for _ in range(5):
            resource.submit(100.0, lambda: None)
        sim.run()
        assert resource.peak_jobs == 5

    def test_many_tiny_jobs_all_complete(self):
        sim = SimEngine()
        resource = BandwidthResource(sim, 1e9)
        done = []
        for i in range(200):
            resource.submit(float(i), lambda: done.append(None))
        sim.run()
        assert len(done) == 200


class TestBlockingEdges:
    def test_one_by_one_dataset(self):
        blocking = Blocking.from_grid(
            DatasetSpec("one", rows=1, cols=1), GridSpec(k=1, l=1)
        )
        assert blocking.num_tasks == 1
        assert blocking.block_rows(0) == 1

    def test_grid_equals_dataset(self):
        blocking = Blocking.from_grid(
            DatasetSpec("full", rows=4, cols=4), GridSpec(k=4, l=4)
        )
        assert blocking.block.elements == 1
        assert blocking.num_tasks == 16

    def test_block_mb_property(self):
        blocking = Blocking.from_grid(
            DatasetSpec("mb", rows=1000, cols=125), GridSpec(k=1, l=1)
        )
        assert blocking.block_mb == pytest.approx(1.0)


class TestWorkflowEdges:
    def test_single_row_kmeans(self):
        import numpy as np

        from repro.algorithms import KMeansWorkflow
        from repro.runtime import Runtime, RuntimeConfig
        from repro.runtime.runtime import Backend

        dataset = DatasetSpec("tinyrow", rows=3, cols=2)
        workflow = KMeansWorkflow(dataset, grid_rows=3, n_clusters=2,
                                  iterations=1)
        rt = Runtime(RuntimeConfig(backend=Backend.IN_PROCESS))
        _d, ref = workflow.build(rt, materialize=True)
        centroids = rt.run().value_of(ref)
        assert centroids.shape == (2, 2)
        assert np.isfinite(centroids).all()

    def test_zero_iteration_protection(self):
        from repro.algorithms import KMeansWorkflow

        with pytest.raises(ValueError):
            KMeansWorkflow(DatasetSpec("z", rows=10, cols=2), grid_rows=2,
                           iterations=0)

    def test_synthetic_levels_stack(self):
        from repro.algorithms import SyntheticWorkflow
        from repro.runtime import Runtime, RuntimeConfig

        rt = Runtime(RuntimeConfig())
        SyntheticWorkflow(
            DatasetSpec("lvl", rows=100_000, cols=10), grid_rows=4,
            parallel_ratio=0.5, levels=5,
        ).build(rt)
        result = rt.run()
        assert result.trace.makespan > 0
        assert max(t.level for t in result.trace.tasks) == 4


class TestAggregationEdges:
    def test_user_code_metrics_empty_trace(self):
        from repro.tracing import Trace, user_code_metrics

        assert user_code_metrics(Trace()) == {}

    def test_parallel_task_metrics_disjoint_filter(self):
        from repro.tracing import Trace, TaskRecord, parallel_task_metrics

        trace = Trace()
        trace.add_task(
            TaskRecord(task_id=0, task_type="a", start=0, end=1, node=0,
                       core=0, level=0, used_gpu=False)
        )
        metrics = parallel_task_metrics(trace, {"nonexistent"})
        assert metrics.parallel_levels == ()
        assert metrics.average_parallel_time == 0.0
