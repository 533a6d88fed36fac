"""Tests for jitter, warm-up, and the §5 measurement protocol."""

import pytest

from repro.algorithms import KMeansWorkflow
from repro.core.experiments.protocol import ProtocolResult, run_with_protocol
from repro.data import paper_datasets
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig
from repro.tracing import Stage


def _simple_runtime(**config):
    rt = Runtime(RuntimeConfig(**config))
    cost = TaskCost(
        serial_flops=16e9, parallel_flops=0, parallel_items=0,
        arithmetic_intensity=0, input_bytes=10**6, output_bytes=10**5,
        host_device_bytes=0, gpu_memory_bytes=0,
    )
    for i in range(12):
        ref = rt.register_input(10**6, name=f"in{i}")
        rt.submit(name="w", inputs=[ref], cost=cost)
    return rt


class TestJitter:
    def test_zero_sigma_is_deterministic(self):
        a = _simple_runtime().run().makespan
        b = _simple_runtime().run().makespan
        assert a == b

    def test_same_seed_same_result(self):
        a = _simple_runtime(jitter_sigma=0.1, jitter_seed=5).run().makespan
        b = _simple_runtime(jitter_sigma=0.1, jitter_seed=5).run().makespan
        assert a == b

    def test_different_seeds_differ(self):
        a = _simple_runtime(jitter_sigma=0.1, jitter_seed=1).run().makespan
        b = _simple_runtime(jitter_sigma=0.1, jitter_seed=2).run().makespan
        assert a != b

    def test_jitter_stays_near_nominal(self):
        nominal = _simple_runtime().run().makespan
        jittered = _simple_runtime(jitter_sigma=0.02, jitter_seed=3).run().makespan
        assert jittered == pytest.approx(nominal, rel=0.15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="jitter_sigma"):
            RuntimeConfig(jitter_sigma=-0.1)


class TestWarmup:
    def test_warmup_slows_first_run(self):
        cold = _simple_runtime(warmup_overhead=2.0).run().makespan
        warm = _simple_runtime().run().makespan
        assert cold > warm + 1.9

    def test_warmup_charged_once_per_core(self):
        result = _simple_runtime(warmup_overhead=2.0).run()
        warmups = [r for r in result.trace.stages if r.stage is Stage.SCHEDULING]
        cores_used = {(t.node, t.core) for t in result.trace.tasks}
        assert len(warmups) == len(cores_used)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_overhead"):
            RuntimeConfig(warmup_overhead=-1.0)


class TestProtocol:
    @pytest.fixture(scope="class")
    def outcome(self) -> ProtocolResult:
        datasets = paper_datasets()
        return run_with_protocol(
            lambda: KMeansWorkflow(
                datasets["kmeans_10gb"], grid_rows=64, n_clusters=10,
                iterations=1,
            ),
            runs=6,
        )

    def test_five_kept_repetitions(self, outcome):
        assert len(outcome.makespans) == 5
        assert len(outcome.parallel_task_times) == 5

    def test_warmup_run_is_slower(self, outcome):
        assert outcome.warmup_makespan > max(outcome.makespans)
        assert outcome.warmup_excess > 0.0

    def test_jitter_produces_spread(self, outcome):
        assert outcome.std_makespan > 0.0
        # ... but small relative to the mean (sigma = 2%).
        assert outcome.std_makespan < 0.1 * outcome.mean_makespan

    def test_mean_is_representative(self, outcome):
        assert min(outcome.makespans) <= outcome.mean_makespan <= max(
            outcome.makespans
        )

    def test_too_few_runs_rejected(self):
        with pytest.raises(ValueError):
            run_with_protocol(lambda: None, runs=1)
