"""Benchmark E11 — Figure 12: generalizability via Matmul FMA.

Paper shape: the FMA implementation repeats the Figure 8 trends — user
code speedup scales with block size to the same ~21x ceiling, with the
same parallel-fraction and CPU-GPU communication behaviour.
"""

import pytest

from repro.core.experiments import run_fig8, run_fig12
from repro.core.experiments.engine import MATMUL_GRIDS


def test_fig12_fma_generalizability(once):
    result = once(run_fig12, "matmul_8gb", MATMUL_GRIDS)
    print()
    print(result.render())
    speedups = {k: v for k, v in result.speedups().items() if v is not None}
    ordered = [speedups[k] for k in sorted(speedups)]
    assert ordered == sorted(ordered)
    assert 17.0 <= max(ordered) <= 26.0
    # Trends match the dislib Matmul within a quarter at each block size.
    reference = run_fig8(grids=MATMUL_GRIDS[:-1])
    for block_mb, value in reference.speedups("matmul_func").items():
        assert speedups[block_mb] == pytest.approx(value, rel=0.25)
