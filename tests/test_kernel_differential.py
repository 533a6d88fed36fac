"""Differential harness: the batched kernel must equal the recorded oracle.

The batched event core (flat heap records, batched ready-set dispatch,
vectorized stage-time evaluation) replaced the legacy object-per-event
``reference`` kernel.  Before that kernel was deleted, every cell of the
kernel corpus (``tests/kernel_corpus.py``) was executed under it and the
trace digests were frozen into
``tests/golden/kernel_oracle_digests.json`` by
``scripts/record_kernel_oracle.py``.  Those digests are the oracle: the
batched kernel is only allowed to be *faster* than the kernel they were
recorded under — never different (task dispatch order, per-stage times,
attempt histories, makespan and failed-task sets, via
:func:`repro.tracing.trace_digest`).

Two layers:

* the corpus replayed against the frozen oracle digests — covering the
  batched fast path (zero-latency clusters, where whole ready batches
  are drained in one scheduler activation), every configuration that
  must fall back to the interleaved dispatch loop (fault plans, lineage
  recovery, speculation, checkpoint barriers, nonzero dispatch latency),
  GPU mode, and the same-instant completion-cascade shape that exposed
  the original drain bug;
* a Hypothesis property comparing batched ready-set drains against a
  forced interleaved dispatch loop over random DAG shapes — the two
  dispatch modes must stay bit-identical now that the old kernel can no
  longer arbitrate between them.

A failure in the oracle layer means the batched kernel changed execution
semantics — fix the kernel, never the recorded digests.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import GeneratedDagWorkflow
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.runtime.backends.simulated import SimulatedExecutor
from tests.kernel_corpus import corpus_cases, run_digest, zero_latency_cluster

ORACLE_PATH = pathlib.Path(__file__).parent / "golden" / "kernel_oracle_digests.json"
ORACLE_SCHEMA = "repro-kernel-oracle/1"


@pytest.fixture(scope="module")
def oracle() -> dict[str, str]:
    payload = json.loads(ORACLE_PATH.read_text())
    assert payload["schema"] == ORACLE_SCHEMA
    return payload["digests"]


_CASES = corpus_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_corpus_matches_recorded_oracle(name, oracle):
    """Every corpus cell must reproduce its frozen reference digest."""
    assert name in oracle, (
        f"corpus cell {name!r} has no recorded oracle digest; run "
        "scripts/record_kernel_oracle.py ONLY if the cell is new — "
        "existing digests must never be re-recorded to absorb a kernel "
        "change"
    )
    make_config, workflow = _CASES[name]
    digest = run_digest(make_config(), workflow)
    assert digest == oracle[name], (
        f"{name}: batched kernel diverged from the recorded oracle digest\n"
        f"  expected {oracle[name][:16]}...\n"
        f"  got      {digest[:16]}...\n"
        "The oracle was recorded under the legacy reference kernel before "
        "its removal; a mismatch means the batched kernel changed "
        "execution semantics.  Fix the kernel, never the recording."
    )


def test_oracle_covers_whole_corpus(oracle):
    """No corpus cell may silently drop out of the recorded oracle."""
    assert sorted(oracle) == sorted(_CASES)


# ------------------------------------------- dispatch-mode equivalence

@given(
    width=st.integers(min_value=2, max_value=10),
    depth=st.integers(min_value=1, max_value=6),
    fan_in=st.integers(min_value=1, max_value=4),
    block_mb=st.sampled_from([0.25, 1.0, 4.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=2, max_value=6),
    policy=st.sampled_from(sorted(SchedulingPolicy, key=lambda p: p.value)),
    storage=st.sampled_from(sorted(StorageKind, key=lambda s: s.value)),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batched_drain_equals_forced_dispatch_loop(
    width, depth, fan_in, block_mb, seed, num_nodes, policy, storage
):
    """Batched ready-set drains must equal the interleaved dispatch loop.

    Zero-latency clusters are the configurations where the batched
    dispatcher actually drains whole ready batches in one activation, so
    this property pins the drain path against the one-decision-per-yield
    loop it claims to be equivalent to.  The monkeypatch-free runs and
    the forced-loop runs must produce bit-identical traces.
    """
    workflow = GeneratedDagWorkflow(
        width=width, depth=depth, fan_in=fan_in, block_mb=block_mb, seed=seed
    )

    def make_config():
        return RuntimeConfig(
            cluster=zero_latency_cluster(num_nodes),
            scheduling=policy,
            storage=storage,
            use_gpu=False,
        )

    batched = run_digest(make_config(), workflow)
    original = SimulatedExecutor._force_dispatch_loop
    SimulatedExecutor._force_dispatch_loop = True
    try:
        forced = run_digest(make_config(), workflow)
    finally:
        SimulatedExecutor._force_dispatch_loop = original
    assert batched == forced, (
        "batched ready-set drain diverged from the interleaved dispatch "
        f"loop: {batched[:16]}... != {forced[:16]}..."
    )


def test_forced_loop_knob_actually_disables_draining(monkeypatch):
    """The test knob must force interleaved dispatch, or the property
    above would vacuously compare the drain path against itself."""
    calls: list[int] = []
    original_drain = SimulatedExecutor._drain_ready_batch

    def counting_drain(self, ready_view):
        calls.append(1)
        return original_drain(self, ready_view)

    monkeypatch.setattr(SimulatedExecutor, "_drain_ready_batch", counting_drain)

    def run_once() -> None:
        config = RuntimeConfig(cluster=zero_latency_cluster(), use_gpu=False)
        runtime = Runtime(config)
        GeneratedDagWorkflow(
            width=8, depth=3, fan_in=2, block_mb=0.25, seed=1
        ).build(runtime)
        runtime.run()

    run_once()
    assert calls, "a zero-latency run should take the batched drain path"
    calls.clear()
    monkeypatch.setattr(SimulatedExecutor, "_force_dispatch_loop", True)
    run_once()
    assert not calls, "the force knob must route dispatch through the loop"
