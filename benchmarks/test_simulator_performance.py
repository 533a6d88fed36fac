"""Throughput floors of the simulator itself (wall-clock, not simulated time).

Regression guards, not measurements: ``bench/run.py`` is what measures
the repo's speed.  A floor trip should mean an order-of-magnitude
regression (e.g. synchronous task starts disengaging, or locality dispatch
sliding back to probing every ready task on a saturated cluster), so
floors sit well below measured rates to absorb CI noise.  Two groups of
cells:

* the workload matrix: ``matmul16`` (the heaviest figure configuration,
  7936 tasks with full storage contention), ``kmeans_deep`` (many short
  levels: completion events and ready-set churn), ``wide_dag``
  (data-locality placement scoring; its width of 64 never fills the
  128-core cluster, so the policy never meets a saturated cluster),
  ``locality_fig10`` (a Fig 10 data-locality cell whose ready queue
  outgrows the cluster: the policy's cost when no node is free),
  ``locality_fig10_gpu16`` (the Fig 10 GPU cell at the grid the figure
  runs: every device busy while cores are free, so the policy must not
  walk the ready queue to learn that no task fits) and ``plain_replay``
  (a dependency-only DAG on a zero-latency cluster: the batched event
  core);
* the scale cells: 10^5 and 10^6 replay tasks in-process, and the same
  task budgets split over four :class:`~repro.core.shard.ShardPool`
  workers (``_x4``).  Only ``scale_100k`` is cheap enough for every
  push; CI runs the rest in its own job with
  ``-k "scale_1m or x4"``.  The serial ``scale_1m`` cell also bounds the
  process's peak RSS, which its task graph dominates.
"""

import dataclasses
import os
import resource
import time

import numpy as np
import pytest

from repro.algorithms import GeneratedDagWorkflow, KMeansWorkflow, MatmulWorkflow
from repro.data import paper_datasets
from repro.hardware import StorageKind, minotauro
from repro.perfmodel import TaskCost
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy


def replay_config() -> RuntimeConfig:
    """8-node cluster with no scheduling latency or locality scan cost, so
    replays measure only the kernel (dependencies, dispatch, events)."""
    cluster = dataclasses.replace(
        minotauro(num_nodes=8),
        scheduling_latency={policy: 0.0 for policy in SchedulingPolicy},
        locality_scan_seconds_per_task=0.0,
    )
    return RuntimeConfig(cluster=cluster, storage=StorageKind.LOCAL,
                         scheduling=SchedulingPolicy.GENERATION_ORDER)


def build_replay(runtime: Runtime, width: int, depth: int, seed: int = 11) -> None:
    """Submit a seeded dependency-only layered DAG of ``width * depth`` tasks.

    Each task reads two distinct tasks of the previous level and has a
    serial compute cost from a 64-entry palette (so the cost model's memo
    stays small at 10^6 tasks); no task moves data.
    """
    rng = np.random.default_rng(seed)
    palette = [
        TaskCost(serial_flops=float(flops), parallel_flops=0.0,
                 parallel_items=0.0, arithmetic_intensity=1e-6, input_bytes=0,
                 output_bytes=0, host_device_bytes=0, gpu_memory_bytes=0)
        for flops in rng.uniform(1e7, 4e7, size=64)
    ]
    total = width * depth
    cost_ix = rng.integers(0, len(palette), size=total).tolist()
    # Two distinct predecessors: a uniform pick plus a nonzero offset.
    first = rng.integers(0, width, size=total)
    second = ((first + rng.integers(1, width, size=total)) % width).tolist()
    first = first.tolist()
    previous = [runtime.register_input(1, name=f"replay_in{i}") for i in range(width)]
    at = 0
    for _ in range(depth):
        current = []
        for _ in range(width):
            a, b = sorted((first[at], second[at]))
            (out,) = runtime.submit(name="replay", inputs=[previous[a], previous[b]],
                                    cost=palette[cost_ix[at]], output_bytes=[0])
            current.append(out)
            at += 1
        previous = current


def timed_run(config: RuntimeConfig, build) -> tuple[int, float]:
    """Build outside the clock, then time ``run()``: (tasks, seconds)."""
    runtime = Runtime(config)
    build(runtime)
    started = time.perf_counter()
    result = runtime.run()
    return result.trace.num_task_records, time.perf_counter() - started


# ------------------------------------------------------- workload matrix

_DATASETS = paper_datasets()

#: name -> (config, DAG builder, tasks/s floor, pinned task count).  The
#: task counts pin the shapes: a silent workload change would quietly
#: re-base the floors.  ``matmul16`` ran at ~500 tasks/s before the fast
#: dispatch path; ``plain_replay`` sits at 6x the legacy 1500 guard;
#: ``locality_fig10`` ran at ~340 tasks/s while the data-locality policy
#: probed every node for every ready task of a saturated cluster;
#: ``locality_fig10_gpu16`` ran at ~580 tasks/s while the policy walked
#: every ready GPU task of a GPU-bound cluster, and at ~3,500 tasks/s once
#: it read part heads (2-vCPU VM).
WORKLOADS = {
    "matmul16": (
        lambda: RuntimeConfig(use_gpu=False),
        MatmulWorkflow(_DATASETS["matmul_8gb"], grid=16).build,
        1500, 7936,
    ),
    "kmeans_deep": (
        lambda: RuntimeConfig(use_gpu=True),
        KMeansWorkflow(_DATASETS["kmeans_10gb"], grid_rows=64, n_clusters=10,
                       iterations=8).build,
        1500, 520,
    ),
    "wide_dag": (
        lambda: RuntimeConfig(use_gpu=False,
                              scheduling=SchedulingPolicy.DATA_LOCALITY),
        GeneratedDagWorkflow(width=64, depth=24, fan_in=3, block_mb=4.0,
                             seed=11).build,
        1500, 1537,
    ),
    "locality_fig10": (
        lambda: RuntimeConfig(use_gpu=True, storage=StorageKind.LOCAL,
                              scheduling=SchedulingPolicy.DATA_LOCALITY),
        MatmulWorkflow(_DATASETS["matmul_8gb"], grid=10).build,
        1000, 1900,
    ),
    "locality_fig10_gpu16": (
        lambda: RuntimeConfig(use_gpu=True, storage=StorageKind.SHARED,
                              scheduling=SchedulingPolicy.DATA_LOCALITY),
        MatmulWorkflow(_DATASETS["matmul_8gb"], grid=16).build,
        1500, 7936,
    ),
    "plain_replay": (
        replay_config,
        lambda runtime: build_replay(runtime, 128, 80),
        9000, 10240,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulator_throughput(benchmark, name):
    make_config, build, floor, expected_tasks = WORKLOADS[name]
    tasks, elapsed = benchmark.pedantic(
        timed_run, args=(make_config(), build), rounds=1, iterations=1
    )
    rate = tasks / elapsed
    print(f"\n{name}: {tasks} tasks in {elapsed:.2f}s ({rate:,.0f} tasks/s)")
    assert tasks == expected_tasks
    assert rate > floor


# ----------------------------------------------------------- scale cells

#: ``(name, width, depth, workers, base floor tasks/s)``.  Width 125 keeps
#: the DAG just under the cluster's 128 concurrent tasks, so dispatcher
#: activations empty the ready set instead of ending in a saturated-node
#: scan.
#: A sharded cell splits the depth over ``workers`` replicas (seeds 11,
#: 12, ...) and is rated on the aggregate: total tasks over batch wall.
SCALE_CELLS = (
    ("scale_100k", 125, 800, 1, 8000.0),
    ("scale_1m", 125, 8000, 1, 9000.0),
    ("scale_100k_x4", 125, 800, 4, 8000.0),
    ("scale_1m_x4", 125, 8000, 4, 9000.0),
)


#: Peak RSS bound of the serial ``scale_1m`` cell, in MB: the process's
#: ``ru_maxrss`` after the run, so it spans the 10^6-task build and the
#: run.  On a 2-vCPU VM (Python 3.11) the cell peaked at about 1,000 MB
#: with slotted task records and at 1,489 MB when every ``Task`` and
#: ``DataRef`` kept its attributes apart and its own empty containers.
SCALE_1M_PEAK_RSS_MB = 1250


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sharded_floor(base_floor: float, workers: int) -> float:
    """Half of ``min(workers, cores)`` times the base floor: on a 4-core
    runner four workers must beat 2x the serial floor; on one core the
    guard only bounds the pool's overhead."""
    return base_floor * 0.5 * min(workers, os.cpu_count() or 1)


def _replay_shard(spec: tuple[int, int, int]) -> int:
    """One sharded replica (module-level so it pickles); returns its tasks."""
    width, depth, seed = spec
    runtime = Runtime(replay_config())
    build_replay(runtime, width, depth, seed=seed)
    return runtime.run().trace.num_task_records


def _run_sharded(width: int, depth: int, workers: int) -> tuple[int, float]:
    from repro.core.shard import ShardPool

    specs = [(width, depth // workers, 11 + i) for i in range(workers)]
    with ShardPool(workers=workers) as pool:
        # Spawn and import stay outside the clock, as a long-lived pool
        # amortises them.
        pool.map(_replay_shard, [(2, 1, 0)] * workers)
        started = time.perf_counter()
        tasks = sum(pool.map(_replay_shard, specs))
        return tasks, time.perf_counter() - started


@pytest.mark.parametrize("cell", SCALE_CELLS, ids=lambda cell: cell[0])
def test_scale_cell(benchmark, cell):
    name, width, depth, workers, base_floor = cell
    if workers == 1:
        tasks, elapsed = benchmark.pedantic(
            timed_run,
            args=(replay_config(), lambda rt: build_replay(rt, width, depth)),
            rounds=1, iterations=1,
        )
        floor = base_floor
    else:
        tasks, elapsed = benchmark.pedantic(
            _run_sharded, args=(width, depth, workers), rounds=1, iterations=1
        )
        floor = sharded_floor(base_floor, workers)
    rate = tasks / elapsed
    print(f"\n{name}: {tasks:,} tasks x{workers} in {elapsed:.2f}s "
          f"({rate:,.0f} tasks/s, floor {floor:,.0f})")
    assert tasks == width * depth
    assert rate >= floor
    if name == "scale_1m":
        peak = peak_rss_mb()
        print(f"{name}: peak RSS {peak:,.0f} MB "
              f"(bound {SCALE_1M_PEAK_RSS_MB:,} MB)")
        assert peak < SCALE_1M_PEAK_RSS_MB
