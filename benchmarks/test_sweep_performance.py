"""Sweep-engine floors: a cold pass over a fixed cell matrix, then a warm one.

Both passes run :class:`~repro.core.experiments.engine.SweepEngine`
against the same cache directory.  The guards:

* the warm pass answers every cell from the content-addressed cache
  (zero simulated executions),
* the warm pass is at least 3x faster than the cold pass (in practice
  orders of magnitude: cache hits are JSON reads),
* cold throughput clears a conservative cells-per-second floor, and
* cold and warm results are byte-identical.
"""

import json
import os
import time

import pytest

from repro.core.experiments.cache import metrics_to_record
from repro.core.experiments.engine import SweepEngine, cells_product
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy

#: Minimum accepted cold-pass throughput.  The 20-cell matrix simulates
#: in well under a second on a laptop-class core (~25 cells/s observed);
#: the floor leaves a wide margin for noisy CI machines.
COLD_CELLS_PER_SECOND_FLOOR = 3.0

#: Warm wall-clock must be at least 3x better than cold.
WARM_SPEEDUP_FLOOR = 3.0

#: A scaled-down cross-section of the figure sweeps on the small
#: datasets: both algorithms, several grids, both processors, plus
#: storage, scheduling, cluster-count and FMA variants.
CELLS = (
    cells_product("matmul", (8, 4, 2), dataset_key="matmul_128mb")
    + cells_product("kmeans", (16, 8, 4), dataset_key="kmeans_100mb",
                    n_clusters=10)
    + cells_product("matmul", (4,), dataset_key="matmul_128mb",
                    storage=StorageKind.LOCAL)
    + cells_product("matmul", (4,), dataset_key="matmul_128mb",
                    scheduling=SchedulingPolicy.DATA_LOCALITY)
    + cells_product("kmeans", (8,), dataset_key="kmeans_100mb", n_clusters=100)
    + cells_product("matmul_fma", (4,), dataset_key="matmul_128mb")
)


def sweep_twice(jobs: int, cache_dir) -> dict:
    """Cold then warm pass; returns wall times, engine stats and records."""
    passes = {}
    for label in ("cold", "warm"):
        with SweepEngine(jobs=jobs, cache_dir=cache_dir) as engine:
            started = time.perf_counter()
            results = engine.run_cells(CELLS)
            wall = time.perf_counter() - started
        records = json.dumps([metrics_to_record(m) for m in results],
                             sort_keys=True)
        passes[label] = {"wall": wall, "stats": engine.stats, "records": records}
    return passes


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    return sweep_twice(1, tmp_path_factory.mktemp("sweep-bench-cache"))


def test_matrix_shape_is_pinned():
    # A silent matrix change would re-base the floors.
    assert len(CELLS) == 20


def test_warm_pass_is_all_hits(passes):
    stats = passes["warm"]["stats"]
    assert stats.misses == 0
    assert stats.hits == len(CELLS)


def test_results_byte_identical(passes):
    assert passes["cold"]["records"] == passes["warm"]["records"]


def test_warm_speedup_floor(passes):
    assert passes["cold"]["wall"] / passes["warm"]["wall"] >= WARM_SPEEDUP_FLOOR


def test_cold_throughput_floor(passes):
    assert len(CELLS) / passes["cold"]["wall"] >= COLD_CELLS_PER_SECOND_FLOOR


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs multiple cores to exercise fan-out"
)
def test_parallel_cold_pass_matches(tmp_path):
    parallel = sweep_twice(2, tmp_path / "par")
    assert parallel["cold"]["records"] == parallel["warm"]["records"]
    assert parallel["warm"]["stats"].misses == 0
