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
* **Deterministic results** — results are keyed by caller-chosen
  instance ids and returned in id order, so a sharded run is
  bit-identical to a serial run of the same instances regardless of
  worker count, start method, or completion order.
* **One supervision policy** — every worker heartbeats over the result
  queue; a worker that stays silent past a fixed window is deemed
  *hung* (alive but frozen) and killed, and a worker that dies on its
  own (segfault, ``os._exit``, OOM-kill) is reaped.  Either way it takes
  only its in-flight instance with it: the pool respawns the worker and
  re-dispatches that instance once.  An instance lost on both of its
  attempts is quarantined, and a pool whose respawn budget runs dry
  raises :class:`ShardCrashError`.
* **Deterministic chaos** — a :class:`~repro.core.chaos.ChaosPlan`
  handed to the pool is shipped to every worker, which consults it
  before each instance to inject real kills, hangs, and slowdowns; the
  keyed decisions guarantee a chaos run is reproducible and its results
  stay bit-identical to a serial run.

Workers advertise themselves through :func:`in_worker`, which the sweep
engine uses to degrade nested fan-out to serial execution instead of
spawning a process pool inside a pool worker.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

#: Set in worker processes before the first instance runs; read through
#: :func:`in_worker` by code that must not nest process pools.
_IN_WORKER = False

#: How many crashed-worker respawns one pool tolerates before giving up;
#: scaled by worker count at construction time.
_RESPAWNS_PER_WORKER = 4

#: Dispatches one instance may consume: a lost instance is retried once,
#: then quarantined.
_MAX_ATTEMPTS = 2

#: Worker heartbeat period, and the silence after which the parent
#: presumes a worker hung and kills it.  Measured on a 2-vCPU VM with
#: four worker processes running replay and grid-10 locality cells, a
#: 0.2 s beat thread woke at most 0.59 s apart, and a spawn-started
#: worker sent its first beat 0.44-0.54 s after start.  The window is
#: five times the larger of the two, so a busy or starting worker is
#: never mistaken for a frozen one.  ``close`` gives workers the same
#: window to honour their shutdown sentinel.
_BEAT_SECONDS = 0.2
_SILENCE_SECONDS = 3.0

#: Parent receive-loop tick: the longest the pool blocks on the result
#: queue before it re-checks worker health.
_TICK_SECONDS = 0.05


def in_worker() -> bool:
    """Whether this process is a :class:`ShardPool` worker."""
    return _IN_WORKER


class ShardCrashError(RuntimeError):
    """Worker-level failure the pool could not absorb: a quarantined
    (poison) instance, or a spent respawn budget."""


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
    instance ids within a batch)."""


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


def _worker_main(worker_id: int, task_queue, result_queue, chaos=None) -> None:
    """Worker loop: warm up once, then stream instances until the sentinel.

    Instance exceptions are caught and shipped back as results — only the
    process dying (never a Python-level error) counts as a crash.  The
    exception crosses the process boundary as ``(type name, str)`` so an
    unpicklable exception object cannot wedge the protocol.

    A daemon thread puts ``(worker_id, None, "beat", None)`` on the
    result queue every ``_BEAT_SECONDS`` — started *before* the warm-up
    import so a slow numpy load is never mistaken for a hang.  A
    chaos-injected hang suspends the beats while it sleeps,
    impersonating a genuinely frozen process.
    """
    global _IN_WORKER
    _IN_WORKER = True

    stop_beats = threading.Event()
    suspend_beats = threading.Event()

    def _beat() -> None:
        while not stop_beats.wait(_BEAT_SECONDS):
            if suspend_beats.is_set():
                continue
            try:
                result_queue.put((worker_id, None, "beat", None))
            except (OSError, ValueError):  # pragma: no cover - teardown
                return

    threading.Thread(target=_beat, daemon=True).start()

    import repro  # noqa: F401  - one warm-up import per worker lifetime

    while True:
        # Idle workers must block here indefinitely: the sentinel is the
        # only wake-up, and the parent judges liveness by the beats.
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

    __slots__ = ("process", "task_queue", "inflight", "last_beat")

    def __init__(self, ctx, worker_id: int, result_queue, chaos) -> None:
        # A private task queue per worker pins each dispatched instance to
        # one process, which is what makes crash attribution exact: when a
        # worker dies, precisely its ``inflight`` item is affected.
        self.task_queue = ctx.SimpleQueue()
        self.inflight: ShardItem | None = None
        self.last_beat = time.perf_counter()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue, chaos),
            daemon=True,
        )
        self.process.start()


def _describe_exit(exitcode: int | None) -> str:
    """Render a worker exit code for loss messages."""
    if exitcode is None:
        return "exit code unknown"
    if exitcode < 0:
        return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"


def _silent_workers(workers: Mapping[int, Any], now: float) -> list[int]:
    """Ids of live workers silent for longer than ``_SILENCE_SECONDS``.

    ``workers`` maps worker ids to objects exposing ``last_beat`` and a
    ``process``; the pool's ``_Worker`` satisfies this.  Idle workers
    beat too, so silence always means a frozen process, never an empty
    queue; dead processes are left to crash reaping.
    """
    return [
        worker_id
        for worker_id in sorted(workers)
        if workers[worker_id].process.is_alive()
        and now - workers[worker_id].last_beat > _SILENCE_SECONDS
    ]


class ShardPool:
    """A reusable pool of persistent, supervised simulation workers.

    One pool is meant to span one logical invocation (a whole
    ``figures all`` run, a bench suite): workers survive across
    :meth:`run` calls, so only the first batch pays process start-up.
    Use as a context manager, or call :meth:`close` explicitly.

    ``start_method`` picks the :mod:`multiprocessing` context (``spawn``,
    ``fork``, ``forkserver``); ``None`` uses the platform default.
    ``chaos`` ships a :class:`~repro.core.chaos.ChaosPlan` to every
    worker.  Supervision is not configurable: heartbeats, the silence
    window, one retry per lost instance and the respawn budget are
    fixed.  Dispatch keeps exactly one instance in flight per worker —
    instance granularity is whole simulations, so there is nothing to
    win from deeper queues, and crash attribution stays exact.
    """

    def __init__(
        self, workers: int, start_method: str | None = None, chaos=None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self.chaos = chaos
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

        Each worker gets its shutdown sentinel and ``_SILENCE_SECONDS``
        to exit; survivors are terminated, then killed, then joined — a
        hung worker can never hang interpreter shutdown.  The result
        queue is drained while waiting, because a worker cannot exit
        before its queue's feeder thread has flushed buffered beats and
        results into the pipe.
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
        deadline = time.perf_counter() + _SILENCE_SECONDS
        for worker in self._pool.values():
            while worker.process.is_alive() and time.perf_counter() < deadline:
                self._drain_result_queue()
                worker.process.join(timeout=_TICK_SECONDS)
            if worker.process.is_alive():
                _dispose_worker(worker)
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

    # ------------------------------------------------------------- dispatch
    def run(
        self,
        items: Sequence[ShardItem],
        on_event: Callable[[str, dict], None] | None = None,
    ) -> dict[Any, Any]:
        """Execute a batch; returns ``{instance_id: result}`` in id order.

        Instances are streamed to idle workers as results come back, so a
        slow instance never blocks the rest of the batch behind a static
        pre-partition.  Every health decision is surfaced through
        ``on_event`` (kinds: ``dispatch``, ``result``, ``retry``,
        ``quarantine``, ``kill``) — the sweep engine's execution ledger
        hangs off this hook.

        Once the whole batch has settled, a quarantined (poison)
        instance raises :class:`ShardCrashError` and an instance
        exception re-raises as :class:`ShardTaskError`.  A spent respawn
        budget raises :class:`ShardCrashError` at once.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        items = list(items)
        known = {item.instance_id for item in items}
        if len(known) != len(items):
            raise ShardProtocolError("duplicate instance ids in one batch")
        emit = on_event if on_event is not None else (lambda kind, info: None)
        pending = list(reversed(items))  # pop() dispatches in caller order
        attempts: dict[Any, int] = {}
        losses: dict[Any, list[str]] = {}
        results: dict[Any, Any] = {}
        errors: dict[Any, tuple[str, str]] = {}
        quarantined: dict[Any, str] = {}
        done: set[Any] = set()

        def lose(worker: _Worker, verb: str, detail: str) -> None:
            """Retry a lost worker's in-flight instance, or quarantine it."""
            item = worker.inflight
            if item is None or item.instance_id in done:
                return
            key = item.instance_id
            verbs = losses.setdefault(key, [])
            verbs.append(verb)
            if attempts[key] < _MAX_ATTEMPTS:
                pending.append(item)
                emit("retry", {"item": key, "attempt": attempts[key], "reason": detail})
                return
            done.add(key)
            what = " and ".join(
                f"{v} {verbs.count(v)} time(s)" for v in sorted(set(verbs))
            )
            quarantined[key] = (
                f"instance {key!r} {what} ({detail}); quarantined after "
                f"{attempts[key]} of {_MAX_ATTEMPTS} attempt(s)"
            )
            emit(
                "quarantine",
                {"item": key, "reason": quarantined[key], "attempts": attempts[key]},
            )

        # Nobody listened between batches: silence counts from here.
        started = time.perf_counter()
        for worker in self._pool.values():
            worker.last_beat = started
        self._ensure_capacity(len(items))
        self._fill_idle_workers(pending, attempts, emit)
        while len(done) < len(items):
            messages = []
            try:
                messages.append(self._result_queue.get(timeout=_TICK_SECONDS))
                while True:
                    messages.append(self._result_queue.get_nowait())
            except queue_module.Empty:
                pass
            # Silence is judged as of this drain, so time spent in the
            # event hook below never counts against a worker.
            now = time.perf_counter()
            for worker_id, instance_id, status, payload in messages:
                worker = self._pool.get(worker_id)
                if worker is not None:
                    worker.last_beat = now
                if status == "beat":
                    continue
                if worker is not None and (
                    worker.inflight is None
                    or worker.inflight.instance_id == instance_id
                ):
                    worker.inflight = None
                if instance_id not in known or instance_id in done:
                    # A retry raced an already-delivered result, or a
                    # stale result from a previous batch surfaced; the
                    # first arrival won, drop the duplicate.
                    continue
                done.add(instance_id)
                if status == "ok":
                    results[instance_id] = payload
                else:
                    errors[instance_id] = payload
                emit(
                    "result",
                    {
                        "item": instance_id,
                        "worker": worker_id,
                        "status": status,
                        "payload": payload,
                        "attempt": attempts[instance_id],
                    },
                )
            # Health pass: reap workers that died on their own, then kill
            # the ones whose heartbeats went silent.
            for worker_id, worker in list(self._pool.items()):
                if not worker.process.is_alive():
                    del self._pool[worker_id]
                    exit_detail = _describe_exit(worker.process.exitcode)
                    lose(worker, "killed its worker", exit_detail)
            for worker_id in _silent_workers(self._pool, now):
                worker = self._pool.pop(worker_id)
                _dispose_worker(worker)
                detail = f"no heartbeat for {_SILENCE_SECONDS:g}s"
                emit("kill", {"worker": worker_id, "detail": detail})
                lose(worker, "froze its worker", detail)
            self._ensure_capacity(len(items) - len(done))
            self._fill_idle_workers(pending, attempts, emit)

        # Workers may still be grinding a superseded retry whose original
        # attempt already delivered; release them for the next batch (the
        # stale result is dropped by the `known` guard above).
        for worker in self._pool.values():
            if worker.inflight is not None and worker.inflight.instance_id in done:
                worker.inflight = None

        if quarantined:
            raise ShardCrashError(quarantined[min(quarantined, key=str)])
        if errors:
            first = min(errors, key=str)
            raise ShardTaskError(first, *errors[first])
        return {key: results[key] for key in sorted(results)}

    def map(
        self, fn: Callable[..., Any], specs: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn(spec)`` for every spec; results align with input order."""
        merged = self.run(
            [ShardItem(instance_id=i, fn=fn, args=(spec,)) for i, spec in enumerate(specs)]
        )
        return [merged[i] for i in range(len(specs))]

    # ------------------------------------------------------------ internals
    def _fill_idle_workers(
        self, pending: list[ShardItem], attempts: dict[Any, int], emit
    ) -> None:
        for worker_id, worker in self._pool.items():
            if not pending:
                return
            if worker.inflight is None and worker.process.is_alive():
                item = pending.pop()
                attempt = attempts[item.instance_id] = (
                    attempts.get(item.instance_id, 0) + 1
                )
                worker.inflight = item
                worker.task_queue.put(
                    (
                        item.instance_id,
                        attempt,
                        item.fn,
                        tuple(item.args),
                        dict(item.kwargs),
                    )
                )
                emit(
                    "dispatch",
                    {"item": item.instance_id, "worker": worker_id, "attempt": attempt},
                )

    def _ensure_capacity(self, outstanding: int) -> None:
        """Keep ``min(workers, outstanding)`` workers alive, raising
        :class:`ShardCrashError` once the respawn budget is spent.

        The first ``self.workers`` spawns are the pool's initial fill and
        are free; only replacement spawns draw down the respawn budget.
        """
        while len(self._pool) < min(self.workers, outstanding):
            if self._next_worker_id >= self.workers:
                if self._respawn_budget <= 0:
                    raise ShardCrashError(
                        "worker respawn budget exhausted; refusing to "
                        f"continue with {len(self._pool)} worker(s)"
                    )
                self._respawn_budget -= 1
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            self._pool[worker_id] = _Worker(
                self._ctx, worker_id, self._result_queue, self.chaos
            )


def _dispose_worker(worker: _Worker) -> None:
    """Escalate a worker to death: terminate, then kill, a second apart."""
    process = worker.process
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=1.0)
