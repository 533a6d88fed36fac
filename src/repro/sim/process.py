"""Cooperative processes on top of the event loop.

A process is a Python generator that yields *commands*; the engine executes
the command and resumes the generator when it completes.  This mirrors the
SimPy programming style and keeps executor code (e.g. "read the block, run
the kernel, write the result") readable as straight-line prose.

Supported commands:

* :class:`Timeout` — sleep for simulated seconds.
* :class:`Transfer` — move bytes through a :class:`BandwidthResource`.
* :class:`WaitEvent` — wait for a :class:`SimEvent` (receives its value).

A process finishing (or raising) fires its ``done`` event, so processes can
wait on one another.

Processes can also be **interrupted**: :meth:`Process.interrupt` throws an
exception into the generator at its current suspension point (modelling
e.g. a node failure killing a resident task).  The command the process was
waiting on is abandoned — a pending :class:`Timeout` is cancelled, and the
completion callback of an in-flight :class:`Transfer`/:class:`WaitEvent`
is ignored when it later fires.  Cores and devices are not process
commands: the simulated executor takes them with
``CapacityResource.try_request`` before a task's process starts and
releases them itself when the process ends or is interrupted, so an
interrupt cannot leak a slot.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import SimEngine, SimulationError
from repro.sim.events import SimEvent
from repro.sim.resources import BandwidthResource


class Command:
    """Base class for commands a process may yield."""

    __slots__ = ()


class Timeout(Command):
    """Sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"timeout must be non-negative, got {delay}")
        self.delay = delay


class Transfer(Command):
    """Move ``nbytes`` through a processor-shared channel."""

    __slots__ = ("resource", "nbytes")

    def __init__(self, resource: BandwidthResource, nbytes: float) -> None:
        self.resource = resource
        self.nbytes = nbytes


class WaitEvent(Command):
    """Block until ``event`` fires; the process receives its value."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event


class Process:
    """Drives a generator of :class:`Command` objects to completion."""

    def __init__(
        self,
        sim: SimEngine,
        generator: Generator[Command, Any, Any],
        name: str = "",
        autostart: bool = True,
    ) -> None:
        self._sim = sim
        self._generator = generator
        self.name = name
        self.done = SimEvent(name=f"{name}.done")
        #: Monotonic counter identifying the currently-awaited command;
        #: completion callbacks from superseded commands (after an
        #: interrupt) carry a stale epoch and are ignored.
        self._epoch = 0
        #: ``autostart=False`` skips the usual zero-delay start event;
        #: the creator must call :meth:`start_now` (used by the dispatcher
        #: to start an uncontended task without a heap event).
        self._pending = sim.schedule(0.0, self._resume, None) if autostart else None

    def start_now(self) -> None:
        """Run the generator to its first suspension point synchronously.

        Only valid on a process created with ``autostart=False`` that has
        not started yet.  The caller is asserting that an immediate start
        is indistinguishable from the zero-delay event ``autostart=True``
        would have scheduled — i.e. no other pending event shares the
        current instant.
        """
        self._resume(None)

    @property
    def started(self) -> bool:
        """Whether the generator has run to its first suspension point.

        Interrupting a process that never started would throw into a
        fresh generator, skipping its body entirely; callers that need
        cleanup semantics (e.g. the node killer) should skip unstarted
        processes and let the process's own liveness checks handle the
        condition when it first runs.
        """
        return self._epoch > 0

    def interrupt(self, error: BaseException) -> None:
        """Throw ``error`` into the process at its suspension point.

        The command the process was waiting on is abandoned (see module
        docstring).  Interrupting a finished
        process is a no-op; the throw is delivered as a zero-delay event
        so the interrupter's own callback completes first.
        """
        if self.done.fired:
            return
        self._epoch += 1
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._sim.schedule(0.0, self._throw, error)

    def _resume(self, value: Any) -> None:
        if self.done.fired:
            return
        self._pending = None
        try:
            command = self._generator.send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except Exception as error:  # noqa: BLE001 - propagated via the event
            self.done.fail(error)
            return
        self._dispatch(command)

    def _throw(self, error: BaseException) -> None:
        if self.done.fired:
            return
        self._pending = None
        try:
            command = self._generator.throw(error)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except Exception as err:  # noqa: BLE001 - propagated via the event
            self.done.fail(err)
            return
        self._dispatch(command)

    def _guarded_resume(self, epoch: int, value: Any) -> None:
        if epoch == self._epoch:
            self._resume(value)

    def _dispatch(self, command: Command) -> None:
        self._epoch += 1
        epoch = self._epoch
        # Exact-type checks, hottest first: the stage walk yields plain
        # Timeout / Transfer / WaitEvent instances millions of times per
        # run, and ``type(x) is C`` skips the mro walk ``isinstance`` pays.
        cls = type(command)
        if cls is Timeout:
            self._pending = self._sim.schedule(command.delay, self._resume, None)
        elif cls is Transfer:
            command.resource.submit(
                command.nbytes, lambda: self._guarded_resume(epoch, None)
            )
        elif cls is WaitEvent:
            command.event.add_callback(
                lambda event: self._on_event(epoch, event)
            )
        else:
            self._throw(SimulationError(f"unknown command: {command!r}"))

    def _on_event(self, epoch: int, event: SimEvent) -> None:
        if epoch != self._epoch:
            return
        if event.error is not None:
            self._throw(event.error)
        else:
            self._resume(event.value)
