"""Differential harness: the batched kernel must equal the recorded oracle.

The batched event core (flat heap records, batched ready-set dispatch)
replaced the legacy object-per-event ``reference`` kernel.  Before that
kernel was deleted, every cell of the kernel corpus
(``tests/kernel_corpus.py``) was executed under it and the trace
digests were frozen into ``tests/golden/kernel_oracle_digests.json`` by
``scripts/record_kernel_oracle.py``.  Those digests are the oracle: the
batched kernel is only allowed to be *faster* than the kernel they were
recorded under — never different (task dispatch order, per-stage times,
attempt histories, makespan and failed-task sets, via
:func:`repro.tracing.trace_digest`).

Two layers:

* the corpus replayed against the frozen oracle digests — covering
  synchronous task starts (zero-latency clusters, where a whole
  same-instant ready set starts in one dispatcher activation), every
  configuration whose dispatcher yields before each launch (fault plans,
  lineage recovery, stragglers, checkpoint barriers, nonzero dispatch
  latency), GPU mode, and the same-instant completion-cascade shape that
  exposed the original bug in the synchronous path;
* a Hypothesis property comparing synchronous starts against runs where
  every instant is made to look contended (so every decision yields)
  over random DAG shapes — the two paths must stay bit-identical now
  that the old kernel can no longer arbitrate between them.

A failure in the oracle layer means the batched kernel changed execution
semantics — fix the kernel, never the recorded digests.
"""

from __future__ import annotations

import contextlib
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import GeneratedDagWorkflow
from repro.hardware import StorageKind
from repro.runtime import Runtime, RuntimeConfig, SchedulingPolicy
from repro.sim import Process, SimEngine
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

@contextlib.contextmanager
def contended_instants():
    """Make every instant look contended to the dispatcher.

    With ``peek_time`` reporting the current instant, no decision may
    start its task synchronously: each one yields and launches through a
    zero-delay start event, the one-decision-per-yield reference path.
    """
    original = SimEngine.peek_time
    SimEngine.peek_time = lambda self: self.now
    try:
        yield
    finally:
        SimEngine.peek_time = original


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
def test_synchronous_starts_equal_interleaved_dispatch(
    width, depth, fan_in, block_mb, seed, num_nodes, policy, storage
):
    """Synchronous task starts must equal the interleaved dispatch path.

    Zero-latency clusters are the configurations where the dispatcher
    starts whole same-instant ready sets without yielding, so this
    property pins that path against the one-decision-per-yield path it
    claims to be equivalent to: the unforced runs and the runs under
    :func:`contended_instants` must produce bit-identical traces.
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

    synchronous = run_digest(make_config(), workflow)
    with contended_instants():
        interleaved = run_digest(make_config(), workflow)
    assert synchronous == interleaved, (
        "synchronous task starts diverged from the interleaved dispatch "
        f"path: {synchronous[:16]}... != {interleaved[:16]}..."
    )


def test_contended_instants_disable_synchronous_starts(monkeypatch):
    """Forcing contention must route every start through the event queue,
    or the property above would vacuously compare a path against itself."""
    calls: list[int] = []
    original_start_now = Process.start_now

    def counting_start_now(self):
        calls.append(1)
        return original_start_now(self)

    monkeypatch.setattr(Process, "start_now", counting_start_now)

    def run_once() -> None:
        config = RuntimeConfig(cluster=zero_latency_cluster(), use_gpu=False)
        runtime = Runtime(config)
        GeneratedDagWorkflow(
            width=8, depth=3, fan_in=2, block_mb=0.25, seed=1
        ).build(runtime)
        runtime.run()

    run_once()
    assert calls, "a zero-latency run should start tasks synchronously"
    calls.clear()
    with contended_instants():
        run_once()
    assert not calls, "contended instants must route every start through a yield"
