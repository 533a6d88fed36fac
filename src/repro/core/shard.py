"""Persistent-worker shard pool for independent simulation instances.

Every experiment in this repository is embarrassingly parallel at the
*instance* level: a figure cell, a fault Monte-Carlo replica, a what-if
query, or a scale-bench replay is one independent, deterministic workflow
simulation.  This module fans batches of such instances out across
long-lived worker processes:

* **Persistent workers** — each worker imports :mod:`repro` once at
  start-up and then streams picklable instance specs over a task queue,
  so the ~1 second interpreter + numpy warm-up is paid per *worker*, not
  per instance (the overhead that makes a ``ProcessPoolExecutor`` per
  call uneconomical for sub-second cells).
* **Deterministic merge** — results are keyed by caller-chosen instance
  ids and merged in id order (:func:`merge_shard_results`), so a sharded
  run is bit-identical to a serial run of the same instances regardless
  of worker count, start method, or completion order.
* **Supervised failure handling** — a worker that dies mid-instance
  (segfault, ``os._exit``, OOM-kill) takes only its in-flight instance
  with it; the pool respawns the worker and re-dispatches that instance
  under an exponential-backoff retry budget.  With a
  :class:`~repro.core.supervise.SupervisionPolicy` the pool also
  enforces per-item wall-clock deadlines and worker heartbeats, so a
  *hung* worker (alive but unresponsive) is killed and its item retried
  instead of wedging :meth:`ShardPool.run` forever.  An instance that
  keeps destroying workers is quarantined once its attempt budget is
  spent, and a pool whose respawn budget runs dry can degrade to fewer
  workers (``allow_degraded``) instead of raising.
* **Deterministic chaos** — a :class:`~repro.core.chaos.ChaosPlan`
  handed to the pool is shipped to every worker, which consults it
  before each instance to inject real kills, hangs, and slowdowns; the
  keyed decisions guarantee a chaos run is reproducible and its merged
  results stay bit-identical to a serial run.

Workers advertise themselves through :func:`in_worker`, which the sweep
engine uses to degrade nested fan-out to serial execution instead of
spawning a process pool inside a pool worker.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.supervise import (
    REASON_CRASH,
    BatchSupervisor,
    ShardRunReport,
    SupervisionPolicy,
    describe_exit,
    overdue_workers,
)

#: Set in worker processes before the first instance runs; read through
#: :func:`in_worker` by code that must not nest process pools.
_IN_WORKER = False

#: How many crashed-worker respawns one pool tolerates before giving up
#: (or degrading); scaled by worker count at construction time.
_RESPAWNS_PER_WORKER = 4

#: Parent receive-loop tick: the longest the pool blocks on the result
#: queue before it re-checks worker health.
_TICK_SECONDS = 0.05


def in_worker() -> bool:
    """Whether this process is a :class:`ShardPool` worker."""
    return _IN_WORKER


class ShardCrashError(RuntimeError):
    """Worker-level failure the pool could not absorb: a quarantined
    (poison) instance, or a respawn budget spent with no degradation
    allowed."""


class ShardTaskError(RuntimeError):
    """An instance raised inside its worker; carries the remote traceback."""

    def __init__(self, instance_id: Any, kind: str, message: str) -> None:
        super().__init__(
            f"shard instance {instance_id!r} raised {kind}: {message}"
        )
        self.instance_id = instance_id
        self.kind = kind
        self.remote_message = message


class ShardProtocolError(ValueError):
    """The pool's invariants were violated by its inputs (duplicate
    instance ids within a batch or across shard result maps)."""


@dataclass(frozen=True)
class ShardItem:
    """One unit of pool work: ``fn(*args, **kwargs)`` under ``instance_id``.

    ``fn`` must be picklable under the pool's start method (a module-level
    function for ``spawn``); ``instance_id`` must be hashable, sortable
    against the batch's other ids, and unique within one batch.
    """

    instance_id: Any
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def merge_shard_results(shards: Iterable[Mapping[Any, Any]]) -> dict[Any, Any]:
    """Merge per-shard ``{instance_id: result}`` maps deterministically.

    The merged dict is built in ascending instance-id order, so its
    iteration order — and anything serialised from it — is independent of
    how instances were assigned to shards and of shard arrival order.
    Duplicate ids across shards are a protocol violation and raise a
    pointed :class:`ShardProtocolError` naming the first collision — the
    alternative (last shard silently wins) would corrupt merged artifacts
    undetectably.
    """
    combined: dict[Any, Any] = {}
    for shard_index, shard in enumerate(shards):
        for instance_id, result in shard.items():
            if instance_id in combined:
                same = "an identical" if combined[instance_id] == result else "a DIFFERENT"
                raise ShardProtocolError(
                    f"instance {instance_id!r} appears in more than one shard "
                    f"(shard {shard_index} carries {same} result); refusing "
                    f"to let one shard silently overwrite another"
                )
            combined[instance_id] = result
    return {instance_id: combined[instance_id] for instance_id in sorted(combined)}


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    heartbeat_interval: float | None = None,
    chaos=None,
) -> None:
    """Worker loop: warm up once, then stream instances until the sentinel.

    Instance exceptions are caught and shipped back as results — only the
    process dying (never a Python-level error) counts as a crash.  The
    exception crosses the process boundary as ``(type name, str)`` so an
    unpicklable exception object cannot wedge the protocol.

    With ``heartbeat_interval`` set, a daemon thread puts
    ``(worker_id, None, "beat", n)`` on the result queue every interval —
    started *before* the warm-up import so a slow numpy load is never
    mistaken for a hang.  A chaos-injected hang suspends the beats while
    it sleeps, impersonating a genuinely frozen process.
    """
    global _IN_WORKER
    _IN_WORKER = True

    stop_beats = threading.Event()
    suspend_beats = threading.Event()
    if heartbeat_interval is not None:

        def _beat() -> None:
            count = 0
            while not stop_beats.wait(heartbeat_interval):
                if suspend_beats.is_set():
                    continue
                try:
                    result_queue.put((worker_id, None, "beat", count))
                except (OSError, ValueError):  # pragma: no cover - teardown
                    return
                count += 1

        threading.Thread(target=_beat, daemon=True).start()

    import repro  # noqa: F401  - one warm-up import per worker lifetime

    while True:
        # Idle workers must block here indefinitely: the sentinel is the
        # only wake-up, and the parent supervises liveness via beats.
        item = task_queue.get()  # repro: disable=DL006
        if item is None:
            stop_beats.set()
            return
        instance_id, attempt, fn, args, kwargs = item
        if chaos is not None:
            action = chaos.decide(instance_id, attempt)
            if action.kind == "kill":
                from repro.core.chaos import CHAOS_EXIT_CODE

                # Flush the result queue before dying: ``os._exit`` mid
                # -feeder-write would take the queue's *shared* write lock
                # to the grave and wedge every surviving writer.  The
                # injected fault must reproduce a worker death, not
                # manufacture cross-process lock corruption.
                stop_beats.set()
                try:
                    result_queue.close()
                    result_queue.join_thread()
                except (OSError, ValueError):  # pragma: no cover - teardown
                    pass
                os._exit(CHAOS_EXIT_CODE)
            elif action.kind == "hang":
                suspend_beats.set()
                time.sleep(action.seconds)
                suspend_beats.clear()
            elif action.kind == "slow":
                time.sleep(action.seconds)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            result_queue.put(
                (
                    worker_id,
                    instance_id,
                    "error",
                    (type(error).__name__, str(error)),
                )
            )
        else:
            result_queue.put((worker_id, instance_id, "ok", result))


class _Worker:
    """One pool worker: its process, private task queue, health state."""

    __slots__ = ("process", "task_queue", "inflight", "dispatched_at", "last_beat")

    def __init__(
        self,
        ctx,
        worker_id: int,
        result_queue,
        heartbeat_interval: float | None,
        chaos,
    ) -> None:
        # A private task queue per worker pins each dispatched instance to
        # one process, which is what makes crash attribution exact: when a
        # worker dies, precisely its ``inflight`` item is affected.
        self.task_queue = ctx.SimpleQueue()
        self.inflight: ShardItem | None = None
        self.dispatched_at: float | None = None
        self.last_beat = time.perf_counter()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue, heartbeat_interval, chaos),
            daemon=True,
        )
        self.process.start()


class ShardPool:
    """A reusable pool of persistent, supervised simulation workers.

    One pool is meant to span one logical invocation (a whole
    ``figures all`` run, a bench suite): workers survive across
    :meth:`run` calls, so only the first batch pays process start-up.
    Use as a context manager, or call :meth:`close` explicitly.

    ``start_method`` picks the :mod:`multiprocessing` context (``spawn``,
    ``fork``, ``forkserver``); ``None`` uses the platform default.
    ``policy`` configures supervision (deadlines, heartbeats, retry
    budget, degradation); the default reproduces the legacy contract —
    crashed workers' items re-dispatch exactly once, nothing else is
    monitored.  ``chaos`` ships a :class:`~repro.core.chaos.ChaosPlan`
    to every worker.  Dispatch keeps exactly one instance in flight per
    worker — instance granularity is whole simulations, so there is
    nothing to win from deeper queues, and crash attribution stays
    exact.
    """

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        policy: SupervisionPolicy | None = None,
        chaos=None,
        shutdown_grace: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.chaos = chaos
        self.shutdown_grace = shutdown_grace
        self._ctx = multiprocessing.get_context(start_method)
        self._result_queue = self._ctx.Queue()
        self._pool: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._respawn_budget = _RESPAWNS_PER_WORKER * workers
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Reap every worker, escalating past a wedged process.

        Each worker gets its shutdown sentinel and ``shutdown_grace``
        seconds to exit; survivors are terminated, then killed, then
        joined — a hung worker can never hang interpreter shutdown.  The
        result queue is drained and closed afterwards so its feeder
        thread cannot deadlock teardown on buffered items.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._pool.values():
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
        # Drain concurrently with the joins: a worker blocked putting a
        # large result cannot exit until the queue's buffer moves.
        self._drain_result_queue()
        for worker in self._pool.values():
            worker.process.join(timeout=self.shutdown_grace)
            if worker.process.is_alive():
                _dispose_worker(worker, grace=self.policy.kill_grace)
            try:
                worker.task_queue.close()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        self._pool.clear()
        self._drain_result_queue()
        try:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
        except (OSError, AttributeError):  # pragma: no cover
            pass

    def _drain_result_queue(self) -> None:
        try:
            while True:
                self._result_queue.get_nowait()
        except (queue_module.Empty, OSError, ValueError):
            pass

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self._pool[worker_id] = _Worker(
            self._ctx,
            worker_id,
            self._result_queue,
            self.policy.heartbeat_interval,
            self.chaos,
        )
        return worker_id

    # ------------------------------------------------------------- dispatch
    def run(
        self,
        items: Sequence[ShardItem],
        on_event: Callable[[str, dict], None] | None = None,
    ) -> dict[Any, Any]:
        """Execute a batch; returns ``{instance_id: result}`` in id order.

        The raising facade over :meth:`run_report`: a quarantined
        (poison) instance raises :class:`ShardCrashError`, an instance
        exception re-raises as :class:`ShardTaskError` after the whole
        batch settled.  Callers that want partial results, the
        ``degraded`` flag, and per-item verdicts use :meth:`run_report`
        directly.
        """
        report = self.run_report(items, on_event=on_event)
        if report.quarantined:
            first = sorted(report.quarantined, key=str)[0]
            raise ShardCrashError(report.quarantined[first])
        if report.errors:
            first = sorted(report.errors, key=str)[0]
            kind, message = report.errors[first]
            raise ShardTaskError(first, kind, message)
        return report.results

    def run_report(
        self,
        items: Sequence[ShardItem],
        on_event: Callable[[str, dict], None] | None = None,
    ) -> ShardRunReport:
        """Execute a batch under supervision; never raises for item-level
        failures.

        Instances are streamed to idle workers as results come back, so a
        slow instance never blocks the rest of the batch behind a static
        pre-partition.  Every health decision is surfaced through
        ``on_event`` (kinds: ``dispatch``, ``result``, ``retry``,
        ``quarantine``, ``kill``, ``degraded``) — the sweep engine's
        execution ledger hangs off this hook.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        items = list(items)
        ids = [item.instance_id for item in items]
        if len(set(ids)) != len(ids):
            raise ShardProtocolError("duplicate instance ids in one batch")
        report = ShardRunReport()
        if not items:
            return report

        def emit(kind: str, info: dict) -> None:
            if on_event is not None:
                on_event(kind, info)

        known = set(ids)
        supervisor = BatchSupervisor(self.policy)
        pending = list(reversed(items))  # pop() dispatches in caller order
        # Backoff parking lot: (release time, requeue order, item).  The
        # monotonically unique order field keeps the sort from ever
        # comparing two ShardItems directly.
        delayed: list[tuple[float, int, ShardItem]] = []
        delayed_seq = itertools.count()
        shard_results: dict[int, dict[Any, Any]] = {}
        done: set[Any] = set()
        total = len(items)

        self._ensure_capacity(total, report)
        self._fill_idle_workers(pending, supervisor, emit)
        while len(done) < total:
            now = time.perf_counter()
            messages = []
            try:
                messages.append(self._result_queue.get(timeout=_TICK_SECONDS))
                while True:
                    messages.append(self._result_queue.get_nowait())
            except queue_module.Empty:
                pass
            for worker_id, instance_id, status, payload in messages:
                worker = self._pool.get(worker_id)
                if status == "beat":
                    if worker is not None:
                        worker.last_beat = now
                    continue
                if worker is not None and (
                    worker.inflight is None
                    or worker.inflight.instance_id == instance_id
                ):
                    worker.inflight = None
                    worker.dispatched_at = None
                    worker.last_beat = now
                if instance_id not in known or instance_id in done:
                    # A retry raced an already-delivered result, or a
                    # stale result from a previous batch surfaced; the
                    # first arrival won, drop the duplicate.
                    continue
                done.add(instance_id)
                if status == "ok":
                    shard_results.setdefault(worker_id, {})[instance_id] = payload
                else:
                    report.errors[instance_id] = payload
                emit(
                    "result",
                    {
                        "item": instance_id,
                        "worker": worker_id,
                        "status": status,
                        "payload": payload,
                        "attempt": supervisor.attempts(instance_id),
                    },
                )
            now = time.perf_counter()
            # Health pass: reap workers that died on their own, then kill
            # the ones supervision declared overdue (item deadline blown,
            # heartbeats gone silent).
            self._reap_dead(pending, delayed, delayed_seq, supervisor, done, report, emit, now)
            for worker_id, reason, detail in overdue_workers(
                self._pool, self.policy, now
            ):
                worker = self._pool.pop(worker_id)
                _dispose_worker(worker, grace=self.policy.kill_grace)
                report.worker_kills += 1
                emit("kill", {"worker": worker_id, "reason": reason, "detail": detail})
                self._handle_loss(
                    worker, reason, detail, pending, delayed, delayed_seq,
                    supervisor, done, report, emit, now,
                )
            # Release parked retries whose backoff elapsed, oldest first.
            if delayed:
                delayed.sort()
                while delayed and delayed[0][0] <= now:
                    _release, _seq, item = delayed.pop(0)
                    pending.append(item)
            outstanding = total - len(done)
            if len(pending) + len(delayed) + self._inflight_count() < outstanding:
                raise AssertionError(
                    "shard pool lost track of instances"
                )  # pragma: no cover - invariant guard
            self._ensure_capacity(outstanding, report, emit)
            self._fill_idle_workers(pending, supervisor, emit)

        # Workers may still be grinding a superseded retry whose original
        # attempt already delivered; release them for the next batch (the
        # stale result is dropped by the `known` guard above).
        for worker in self._pool.values():
            if worker.inflight is not None and worker.inflight.instance_id in done:
                worker.inflight = None
                worker.dispatched_at = None

        report.results = merge_shard_results(shard_results.values())
        report.attempts = supervisor.attempts_map()
        return report

    def map(
        self, fn: Callable[..., Any], specs: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn(spec)`` for every spec; results align with input order."""
        merged = self.run(
            [ShardItem(instance_id=i, fn=fn, args=(spec,)) for i, spec in enumerate(specs)]
        )
        return [merged[i] for i in range(len(specs))]

    # ------------------------------------------------------------ internals
    def _inflight_count(self) -> int:
        return sum(1 for w in self._pool.values() if w.inflight is not None)

    def _dispatch(
        self, worker_id: int, item: ShardItem, supervisor: BatchSupervisor, emit
    ) -> None:
        worker = self._pool[worker_id]
        attempt = supervisor.note_dispatch(item.instance_id)
        worker.inflight = item
        worker.dispatched_at = time.perf_counter()
        worker.task_queue.put(
            (item.instance_id, attempt, item.fn, tuple(item.args), dict(item.kwargs))
        )
        emit(
            "dispatch",
            {"item": item.instance_id, "worker": worker_id, "attempt": attempt},
        )

    def _fill_idle_workers(
        self, pending: list[ShardItem], supervisor: BatchSupervisor, emit
    ) -> None:
        for worker_id, worker in list(self._pool.items()):
            if not pending:
                return
            if worker.inflight is None and worker.process.is_alive():
                self._dispatch(worker_id, pending.pop(), supervisor, emit)

    def _ensure_capacity(
        self, outstanding: int, report: ShardRunReport, emit=None
    ) -> None:
        """Keep ``min(workers, outstanding)`` workers alive, degrading or
        raising per policy when the respawn budget cannot sustain it.

        The first ``self.workers`` spawns are the pool's initial fill and
        are free; only replacement spawns draw down the respawn budget.
        """
        target = min(self.workers, max(outstanding, 0))
        while len(self._pool) < target:
            is_respawn = self._next_worker_id >= self.workers
            if is_respawn and self._respawn_budget <= 0:
                self._degrade_or_raise(report, emit, "worker respawn budget exhausted")
                return
            try:
                self._spawn_worker()
            except OSError as error:  # pragma: no cover - depends on OS limits
                self._degrade_or_raise(report, emit, f"worker spawn failed: {error}")
                return
            if is_respawn:
                self._respawn_budget -= 1
                report.respawns += 1

    def _degrade_or_raise(self, report: ShardRunReport, emit, why: str) -> None:
        alive = sum(1 for w in self._pool.values() if w.process.is_alive())
        if self.policy.allow_degraded and alive >= 1:
            if not report.degraded:
                report.degraded = True
                if emit is not None:
                    emit("degraded", {"workers": alive, "reason": why})
            return
        raise ShardCrashError(f"{why}; refusing to continue with {alive} worker(s)")

    def _reap_dead(
        self, pending, delayed, delayed_seq, supervisor, done, report, emit, now
    ) -> None:
        """Collect workers whose processes died on their own."""
        for worker_id in list(self._pool):
            worker = self._pool[worker_id]
            if worker.process.is_alive():
                continue
            del self._pool[worker_id]
            report.worker_crashes += 1
            detail = describe_exit(worker.process.exitcode)
            self._handle_loss(
                worker, REASON_CRASH, detail, pending, delayed, delayed_seq,
                supervisor, done, report, emit, now,
            )

    def _handle_loss(
        self,
        worker: _Worker,
        reason: str,
        detail: str,
        pending: list[ShardItem],
        delayed: list,
        delayed_seq,
        supervisor: BatchSupervisor,
        done: set,
        report: ShardRunReport,
        emit,
        now: float,
    ) -> None:
        """Route a lost worker's in-flight instance: retry or quarantine."""
        lost = worker.inflight
        if lost is None or lost.instance_id in done:
            return
        verdict, outcome = supervisor.record_loss(lost.instance_id, reason, detail)
        if verdict == "quarantine":
            done.add(lost.instance_id)
            report.quarantined[lost.instance_id] = outcome
            emit(
                "quarantine",
                {
                    "item": lost.instance_id,
                    "reason": outcome,
                    "attempts": supervisor.attempts(lost.instance_id),
                },
            )
        else:
            delay = float(outcome)
            if delay > 0:
                delayed.append((now + delay, next(delayed_seq), lost))
            else:
                pending.append(lost)
            emit(
                "retry",
                {
                    "item": lost.instance_id,
                    "attempt": supervisor.attempts(lost.instance_id),
                    "reason": reason,
                    "delay": delay,
                },
            )


def _dispose_worker(worker: _Worker, grace: float = 1.0) -> None:
    """Escalate a worker to death: terminate, then kill, then join."""
    process = worker.process
    if not process.is_alive():
        process.join(timeout=grace)
        return
    process.terminate()
    process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=grace)
