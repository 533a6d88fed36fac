"""Benchmark E6 — Figure 9a: the algorithm-specific parameter (#clusters).

Paper shape: K-means user-code GPU speedup grows with the cluster count
(marginal at K=10, ~2-3x better at K=100, several-fold at K=1000) and
barely moves with block size; the GPU OOM region widens with K, reaching
"CPU GPU OOM" (host memory too) at the largest blocks for K=1000 (O4).
"""

from repro.core.experiments import run_fig9a
from repro.core.experiments.engine import KMEANS_GRIDS
from repro.core.experiments.fig9 import FIG9A_CLUSTERS
from repro.core.observations import check_o4


def test_fig9a_clusters(once):
    result = once(run_fig9a, "kmeans_10gb", FIG9A_CLUSTERS, KMEANS_GRIDS)
    print()
    print(result.render())
    print()
    print(result.chart())
    o4 = check_o4(result)
    print(o4)
    assert o4.passed
    assert result.best_speedup(10) < 1.6
    assert result.best_speedup(1000) / result.best_speedup(10) >= 3.0
    # OOM region widens with K; the K=1000 maximum block OOMs on the host.
    statuses = {
        (p.n_clusters, p.grid): p.status for p in result.points
    }
    assert statuses[(10, 1)] == "ok"
    assert statuses[(100, 1)] == "gpu_oom"
    assert statuses[(1000, 1)] == "cpu_oom"
