"""Shard-pool contract tests: determinism, supervision, re-entrancy.

The pool's promise is that sharded execution is an *implementation
detail*: a batch fanned out across any number of workers, under any
start method, returns exactly what a serial run of the same instances
produces.  These tests pin that promise against the golden-trace matrix
(real simulations, recorded digests), then cover the failure contract —
instance exceptions re-raise once the batch settles, a killed worker's
instance re-runs exactly once, a twice-killing instance is quarantined
instead of looping, a spent respawn budget raises — the heartbeat check
on stub workers, and the re-entrancy guard that keeps a pool worker from
spawning a pool of its own.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.core import shard
from repro.core.shard import (
    ShardCrashError,
    ShardItem,
    ShardPool,
    ShardProtocolError,
    ShardTaskError,
)
from repro.tracing import trace_digest
from tests.golden_matrix import golden_cases

#: Golden-matrix cells the sharded-vs-serial digest tests replay: every
#: wide16 cell (CPU, jitter, all policies, clean and faulted) plus one
#: GPU cell and one faulted GPU-overflow cell, so the workers exercise
#: the same executor paths the recorded digests pin.
_SHARD_KEYS = (
    "wide16|generation_order|clean",
    "wide16|generation_order|faults",
    "wide16|data_locality|clean",
    "wide16|data_locality|faults",
    "wide16|lifo|clean",
    "wide16|lifo|faults",
    "matmul4|generation_order|clean",
    "kmeans40|lifo|faults",
)


def _digest_golden_cell(key: str) -> str:
    """Run one golden-matrix cell by key and digest its trace.

    Module-level so it pickles under the ``spawn`` start method: the
    worker re-imports this module and rebuilds the case from its key
    instead of shipping a closure across the process boundary.
    """
    (case,) = [c for c in golden_cases() if c.key == key]
    result = case.run()
    return trace_digest(result.trace, result.failed_task_ids)


@pytest.fixture(scope="module")
def serial_digests() -> dict[str, str]:
    return {key: _digest_golden_cell(key) for key in _SHARD_KEYS}


class TestShardedDeterminism:
    @pytest.mark.parametrize(
        "start_method,workers",
        [("fork", 2), ("fork", 4), ("spawn", 2)],
    )
    def test_sharded_matches_serial_golden_digests(
        self, serial_digests, start_method, workers
    ):
        """Any worker count and start method reproduces the serial run."""
        with ShardPool(workers=workers, start_method=start_method) as pool:
            merged = pool.run(
                [
                    ShardItem(instance_id=key, fn=_digest_golden_cell, args=(key,))
                    for key in _SHARD_KEYS
                ]
            )
        assert merged == serial_digests
        assert list(merged) == sorted(_SHARD_KEYS)

    def test_pool_reusable_across_batches(self, serial_digests):
        """Workers persist across run() calls; later batches still merge
        correctly (the warm-up-once economics the pool exists for)."""
        keys = list(_SHARD_KEYS[:4])
        with ShardPool(workers=2, start_method="fork") as pool:
            first = pool.run(
                [
                    ShardItem(instance_id=k, fn=_digest_golden_cell, args=(k,))
                    for k in keys[:2]
                ]
            )
            second = pool.run(
                [
                    ShardItem(instance_id=k, fn=_digest_golden_cell, args=(k,))
                    for k in keys[2:]
                ]
            )
        combined = {**first, **second}
        assert combined == {k: serial_digests[k] for k in keys}


# ----------------------------------------------------- crash isolation

def _crash_once(marker: str) -> str:
    """Die hard on the first invocation, succeed on the second.

    The marker file counts invocations across the kill/respawn cycle:
    one byte is appended per call, so the parent can assert the instance
    ran exactly twice (once killed, once to completion).
    """
    with open(marker, "a") as handle:
        handle.write("x")
    if os.path.getsize(marker) == 1:
        os._exit(42)
    return "survived"


def _always_crash() -> None:
    os._exit(7)


def _raise_value_error(payload: str) -> None:
    raise ValueError(payload)


def _identity(value: int) -> int:
    return value


class TestCrashIsolation:
    def test_killed_worker_instance_reruns_exactly_once(self):
        with tempfile.TemporaryDirectory() as scratch:
            marker = str(Path(scratch) / "invocations")
            with ShardPool(workers=2, start_method="fork") as pool:
                merged = pool.run(
                    [
                        ShardItem(instance_id=0, fn=_identity, args=(10,)),
                        ShardItem(instance_id=1, fn=_crash_once, args=(marker,)),
                        ShardItem(instance_id=2, fn=_identity, args=(20,)),
                    ]
                )
            assert merged == {0: 10, 1: "survived", 2: 20}
            assert Path(marker).stat().st_size == 2

    def test_twice_killing_instance_raises_instead_of_looping(self):
        with ShardPool(workers=2, start_method="fork") as pool:
            with pytest.raises(ShardCrashError, match="killed its worker"):
                pool.run(
                    [
                        ShardItem(instance_id=0, fn=_identity, args=(1,)),
                        ShardItem(instance_id=1, fn=_always_crash),
                    ]
                )

    def test_losses_retry_until_the_attempt_budget_then_quarantine(self):
        """A lost instance is retried once, then quarantined: the batch
        settles and ``run`` raises instead of respawning forever."""
        events = []
        with ShardPool(workers=2, start_method="fork") as pool:
            with pytest.raises(ShardCrashError, match="killed its worker"):
                pool.run(
                    [
                        ShardItem(instance_id=0, fn=_identity, args=(1,)),
                        ShardItem(instance_id=1, fn=_always_crash),
                    ],
                    on_event=lambda kind, info: events.append((kind, info)),
                )
        verdicts = [
            (kind, info) for kind, info in events if kind in ("retry", "quarantine")
        ]
        assert verdicts == [
            ("retry", {"item": 1, "attempt": 1, "reason": "exit code 7"}),
            ("quarantine", {
                "item": 1,
                "reason": "instance 1 killed its worker 2 time(s) (exit code 7); "
                          "quarantined after 2 of 2 attempt(s)",
                "attempts": 2,
            }),
        ]

    def test_instance_exception_reraises_with_remote_context(self):
        with ShardPool(workers=2, start_method="fork") as pool:
            with pytest.raises(ShardTaskError, match="ValueError") as excinfo:
                pool.run(
                    [
                        ShardItem(instance_id=0, fn=_identity, args=(1,)),
                        ShardItem(
                            instance_id=1, fn=_raise_value_error, args=("boom",)
                        ),
                    ]
                )
        assert excinfo.value.instance_id == 1
        assert excinfo.value.kind == "ValueError"
        assert "boom" in excinfo.value.remote_message

    def test_errors_reraise_after_the_batch_settles(self):
        """An instance exception does not abandon the batch: the rest
        still runs on the same worker before ``run`` re-raises."""
        events = []
        with ShardPool(workers=1, start_method="fork") as pool:
            with pytest.raises(ShardTaskError, match="bad"):
                pool.run(
                    [
                        ShardItem(instance_id=0, fn=_raise_value_error, args=("bad",)),
                        ShardItem(instance_id=1, fn=_identity, args=(7,)),
                    ],
                    on_event=lambda kind, info: events.append((kind, info)),
                )
        results = {
            info["item"]: (info["status"], info["payload"])
            for kind, info in events
            if kind == "result"
        }
        assert results == {0: ("error", ("ValueError", "bad")), 1: ("ok", 7)}

    def test_spent_respawn_budget_raises(self):
        with tempfile.TemporaryDirectory() as scratch:
            marker = str(Path(scratch) / "invocations")
            with ShardPool(workers=1, start_method="fork") as pool:
                pool._respawn_budget = 0
                with pytest.raises(
                    ShardCrashError, match="respawn budget exhausted"
                ):
                    pool.run(
                        [ShardItem(instance_id=0, fn=_crash_once, args=(marker,))]
                    )

    def test_exception_does_not_kill_the_worker(self):
        """A Python-level error is a result, not a crash: the same pool
        keeps serving instances afterwards."""
        with ShardPool(workers=1, start_method="fork") as pool:
            with pytest.raises(ShardTaskError):
                pool.run([ShardItem(instance_id=0, fn=_raise_value_error, args=("x",))])
            assert pool.run(
                [ShardItem(instance_id=0, fn=_identity, args=(5,))]
            ) == {0: 5}


# ---------------------------------------------------- pool API contract

class TestPoolContract:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardPool(workers=0)

    def test_duplicate_instance_ids_rejected(self):
        with ShardPool(workers=1, start_method="fork") as pool:
            with pytest.raises(ValueError, match="duplicate instance ids"):
                pool.run(
                    [
                        ShardItem(instance_id=1, fn=_identity, args=(1,)),
                        ShardItem(instance_id=1, fn=_identity, args=(2,)),
                    ]
                )

    def test_empty_batch_is_a_noop(self):
        with ShardPool(workers=2) as pool:
            assert pool.run([]) == {}

    def test_closed_pool_refuses_work(self):
        pool = ShardPool(workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([ShardItem(instance_id=0, fn=_identity, args=(1,))])

    def test_map_aligns_with_input_order(self):
        with ShardPool(workers=2, start_method="fork") as pool:
            assert pool.map(_identity, [3, 1, 2]) == [3, 1, 2]

    def test_duplicate_batch_error_is_a_protocol_error(self):
        with ShardPool(workers=1, start_method="fork") as pool:
            with pytest.raises(ShardProtocolError):
                pool.run(
                    [
                        ShardItem(instance_id=1, fn=_identity, args=(1,)),
                        ShardItem(instance_id=1, fn=_identity, args=(2,)),
                    ]
                )

    def test_close_escalates_past_a_wedged_worker(self, monkeypatch):
        """A worker stuck in a 1-hour task cannot hang close(): after
        the silence window (shortened here to 0.2 s) the pool
        terminates, then kills, then joins it.  The wedge is injected
        through the worker's own task queue so the public API never has
        to expose an 'ignore the sentinel' mode."""
        pool = ShardPool(workers=1, start_method="fork")
        try:
            assert pool.run(
                [ShardItem(instance_id=0, fn=_identity, args=(1,))]
            ) == {0: 1}
            monkeypatch.setattr(shard, "_SILENCE_SECONDS", 0.2)
            (worker,) = pool._pool.values()
            worker.task_queue.put((1, 1, time.sleep, (3600.0,), {}))
            time.sleep(0.3)  # let the worker pick the sleep up
            started = time.perf_counter()
            pool.close()
            elapsed = time.perf_counter() - started
            assert not worker.process.is_alive()
            assert elapsed < 5.0, f"close() took {elapsed:.1f}s against a wedge"
        finally:
            pool.close()


# ------------------------------------------------------ heartbeat check

class _StubProcess:
    def __init__(self, alive: bool = True) -> None:
        self._alive = alive

    def is_alive(self) -> bool:
        return self._alive


class _StubWorker:
    def __init__(self, alive: bool = True, last_beat: float = 0.0) -> None:
        self.process = _StubProcess(alive)
        self.last_beat = last_beat


class TestDescribeExit:
    def test_renders_all_exit_shapes(self):
        assert shard._describe_exit(None) == "exit code unknown"
        assert shard._describe_exit(-9) == "killed by signal 9"
        assert shard._describe_exit(3) == "exit code 3"


class TestSilentWorkers:
    def test_silent_worker_is_flagged_even_when_idle(self, monkeypatch):
        monkeypatch.setattr(shard, "_SILENCE_SECONDS", 1.5)
        workers = {0: _StubWorker(last_beat=0.0), 1: _StubWorker(last_beat=1.9)}
        assert shard._silent_workers(workers, now=2.0) == [0]

    def test_a_beating_worker_is_never_flagged(self):
        """There is no item deadline: however long a worker's instance
        runs, it is left alone while its beats keep arriving."""
        workers = {0: _StubWorker(last_beat=1e9 - shard._BEAT_SECONDS)}
        assert shard._silent_workers(workers, now=1e9) == []

    def test_dead_processes_are_someone_elses_problem(self):
        """Crash reaping owns dead workers; the heartbeat check only
        judges processes that are still alive."""
        workers = {0: _StubWorker(alive=False, last_beat=0.0)}
        assert shard._silent_workers(workers, now=100.0) == []


# --------------------------------------------------- re-entrancy guard

class TestReentrancyGuard:
    def test_in_worker_reflects_module_flag(self, monkeypatch):
        assert shard.in_worker() is False
        monkeypatch.setattr(shard, "_IN_WORKER", True)
        assert shard.in_worker() is True

    def test_engine_degrades_to_serial_inside_a_worker(self, monkeypatch):
        """A pool worker running the sweep engine must not spawn a nested
        pool: jobs > 1 silently degrades to in-process execution.  This
        is the guard that prevents fork bombs when a sharded figure run
        executes cells that themselves use the engine."""
        from repro.core.experiments.engine import SweepEngine, cells_product

        monkeypatch.setattr(shard, "_IN_WORKER", True)
        cells = cells_product("matmul", (2, 4), dataset_key="matmul_128mb")
        with SweepEngine(jobs=4, cache=False) as engine:
            results = engine.run_cells(cells)
            assert engine._pool is None, (
                "engine built a nested ShardPool inside a worker"
            )
        assert len(results) == len(cells)
        assert all(r.makespan > 0 for r in results)
