"""Deterministic fault plans for the simulated runtime.

The paper's measurements (§5) assume every task completes, but its own
taxonomy (Table 1) names resource exhaustion and contention as first-class
factors — and at cluster scale node loss, device OOM mid-run, and
stragglers are the norm.  A :class:`FaultPlan` describes *which* failures a
simulated execution injects and *when*:

* :class:`TaskCrash` — one task attempt dies at a Figure-4 stage;
* :class:`NodeFault` — a node fails at a simulated timestamp, killing
  every resident task and leaving the schedulable cluster;
* :class:`GpuOomFault` — a device allocation fails at run time (distinct
  from the statically-predicted WF102, which never starts the run);
* :class:`Straggler` — compute stages on one node / of one task type run
  slower by a constant factor;
* ``crash_probability`` — seed-driven random crashes, deterministic per
  (seed, task, attempt) so a rerun with the same seed reproduces the same
  failures, the same recovery, and the same makespan.

Plans are data, not behaviour: the simulated executor queries them at
stage boundaries, so the same plan object can be reused across runs and
serialised to/from JSON for the ``repro run --faults`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from repro.tracing.trace import Stage


class FaultError(Exception):
    """Base class of every injected failure.

    ``kind`` is the stable outcome label recorded in
    :class:`~repro.tracing.TaskAttempt` records ("crash", "node_failure",
    "gpu_oom").
    """

    kind = "fault"


class TaskCrashError(FaultError):
    """An injected task crash (planned or probabilistic)."""

    kind = "crash"

    def __init__(self, task_id: int, stage: Stage) -> None:
        self.task_id = task_id
        self.stage = stage
        super().__init__(f"task {task_id} crashed during {stage.value}")


class NodeFailureError(FaultError):
    """The node a task was resident on failed mid-run."""

    kind = "node_failure"

    def __init__(self, node: int) -> None:
        self.node = node
        super().__init__(f"node {node} failed")


class InjectedGpuOomError(FaultError):
    """A device allocation failed at run time (not statically predicted)."""

    kind = "gpu_oom"

    def __init__(self, task_id: int) -> None:
        self.task_id = task_id
        super().__init__(f"task {task_id} hit a runtime GPU OOM")


def _matches(task_id: int, task_type: str, want_id: int | None,
             want_type: str | None) -> bool:
    if want_id is not None and want_id != task_id:
        return False
    if want_type is not None and want_type != task_type:
        return False
    return want_id is not None or want_type is not None


#: The stages at whose end the simulated executor can end an attempt.
_CRASH_STAGES = (
    Stage.DESERIALIZATION,
    Stage.SERIAL_FRACTION,
    Stage.PARALLEL_FRACTION,
    Stage.SERIALIZATION,
)


@dataclass(frozen=True)
class TaskCrash:
    """Crash matching task attempts at the end of one Figure-4 stage.

    Match by ``task_id``, ``task_type``, or both; ``attempts`` lists the
    attempt numbers (1-based) that die.  ``stage`` is deserialization,
    the serial or parallel fraction, or serialization: the stages an
    attempt can end after.  A crash planned at a stage the task never
    reaches (e.g. ``DESERIALIZATION`` in a width-1 workflow, which skips
    storage) simply never fires.
    """

    task_id: int | None = None
    task_type: str | None = None
    stage: Stage = Stage.PARALLEL_FRACTION
    attempts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.task_id is None and self.task_type is None:
            raise ValueError("TaskCrash needs a task_id or a task_type")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ValueError("attempts must be 1-based attempt numbers")
        # The executor tests stages by identity, so a stage given by its
        # name would never fire.
        object.__setattr__(self, "stage", Stage(self.stage))
        if self.stage not in _CRASH_STAGES:
            raise ValueError(
                "a task crash stage must be deserialization, serial_fraction, "
                f"parallel_fraction or serialization, got {self.stage.value!r}"
            )

    def applies(self, task_id: int, task_type: str, attempt: int) -> bool:
        """Whether this crash kills the given attempt."""
        return (
            _matches(task_id, task_type, self.task_id, self.task_type)
            and attempt in self.attempts
        )


@dataclass(frozen=True)
class NodeFault:
    """Node ``node`` fails at simulated time ``at_time`` (seconds).

    Every task resident on the node dies with a ``node_failure`` outcome,
    and the node stops accepting work for the rest of the run.
    """

    node: int
    at_time: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node index must be non-negative")
        if self.at_time < 0:
            raise ValueError("at_time must be non-negative")


@dataclass(frozen=True)
class GpuOomFault:
    """Device allocation of matching attempts fails at run time.

    Models fragmentation / co-residency OOM that static analysis (WF102)
    cannot see.  With
    :attr:`~repro.faults.RetryPolicy.gpu_fallback_to_cpu` the retry runs
    on a CPU core instead.
    """

    task_id: int | None = None
    task_type: str | None = None
    attempts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.task_id is None and self.task_type is None:
            raise ValueError("GpuOomFault needs a task_id or a task_type")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ValueError("attempts must be 1-based attempt numbers")

    def applies(self, task_id: int, task_type: str, attempt: int) -> bool:
        """Whether this fault hits the given attempt."""
        return (
            _matches(task_id, task_type, self.task_id, self.task_type)
            and attempt in self.attempts
        )


@dataclass(frozen=True)
class Straggler:
    """Compute stages run ``factor`` x slower on a node / task type.

    ``node=None`` matches every node, ``task_type=None`` every type;
    multiple matching stragglers multiply.
    """

    factor: float
    node: int | None = None
    task_type: str | None = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1")
        if self.node is not None and self.node < 0:
            raise ValueError("node index must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """Everything a simulated execution injects, fully deterministic.

    The probabilistic stream is keyed by ``(seed, task_id, attempt)``, not
    by draw order, so injected failures do not depend on the interleaving
    of the discrete-event simulation: the same seed always produces the
    same failures — and therefore the same recovery and the same makespan
    — run after run, consistent with ``jitter_seed`` determinism.
    """

    task_crashes: tuple[TaskCrash, ...] = ()
    node_faults: tuple[NodeFault, ...] = ()
    gpu_ooms: tuple[GpuOomFault, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    #: Probability that any given task attempt crashes (seed-driven).
    crash_probability: float = 0.0
    #: Seed of the probabilistic fault stream and of backoff jitter.
    seed: int = 0

    #: Stages a probabilistic crash may land on (storage-independent, so
    #: width-1 workflows crash too).
    _RANDOM_CRASH_STAGES = (Stage.SERIAL_FRACTION, Stage.PARALLEL_FRACTION)

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be within [0, 1]")
        object.__setattr__(self, "task_crashes", tuple(self.task_crashes))
        object.__setattr__(self, "node_faults", tuple(self.node_faults))
        object.__setattr__(self, "gpu_ooms", tuple(self.gpu_ooms))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not (
            self.task_crashes
            or self.node_faults
            or self.gpu_ooms
            or self.stragglers
            or self.crash_probability > 0.0
        )

    # ------------------------------------------------------------ queries
    def rng_for(self, stream: str, task_id: int, attempt: int) -> np.random.Generator:
        """A generator keyed by (seed, stream, task, attempt).

        Execution-order independent: two runs draw identical values for
        the same key no matter how the event loop interleaves tasks.
        """
        stream_key = sum(ord(c) for c in stream)
        return np.random.default_rng(
            [self.seed, stream_key, task_id, attempt]
        )

    def crash_stage_for(
        self, task_id: int, task_type: str, attempt: int
    ) -> Stage | None:
        """The stage at whose end this attempt dies, or ``None``.

        Explicit :class:`TaskCrash` entries win over the probabilistic
        stream.
        """
        for crash in self.task_crashes:
            if crash.applies(task_id, task_type, attempt):
                return crash.stage
        if self.crash_probability > 0.0:
            rng = self.rng_for("crash", task_id, attempt)
            if rng.random() < self.crash_probability:
                index = int(rng.integers(len(self._RANDOM_CRASH_STAGES)))
                return self._RANDOM_CRASH_STAGES[index]
        return None

    def gpu_oom_for(self, task_id: int, task_type: str, attempt: int) -> bool:
        """Whether this attempt's device allocation fails."""
        return any(
            fault.applies(task_id, task_type, attempt) for fault in self.gpu_ooms
        )

    def straggler_factor(self, task_type: str, node: int) -> float:
        """Combined slow-down of compute stages for (task type, node)."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.node is not None and straggler.node != node:
                continue
            if (
                straggler.task_type is not None
                and straggler.task_type != task_type
            ):
                continue
            factor *= straggler.factor
        return factor

    # -------------------------------------------------------- (de)serialise
    def to_dict(self) -> dict:
        """JSON-ready representation (``FaultPlan.from_dict`` inverse)."""
        def plain(obj) -> dict:
            out = {}
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, Stage):
                    value = value.value
                out[f.name] = list(value) if isinstance(value, tuple) else value
            return out

        return {
            "task_crashes": [plain(c) for c in self.task_crashes],
            "node_faults": [plain(n) for n in self.node_faults],
            "gpu_ooms": [plain(g) for g in self.gpu_ooms],
            "stragglers": [plain(s) for s in self.stragglers],
            "crash_probability": self.crash_probability,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from :meth:`to_dict` output (or hand-written JSON).

        Raises ``ValueError`` naming the first key or entry that does not
        fit: a payload or entry that is not an object, an unknown or a
        missing key, or a value of the wrong type.
        """
        return _parse(cls, payload, "fault plan")

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON string (``repro run --faults``)."""
        return cls.from_dict(json.loads(text))

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the plan as JSON."""
        return json.dumps(self.to_dict(), indent=indent)


#: Plan key -> the type of the entries its JSON list holds.
_ENTRY_TYPES = {
    "task_crashes": TaskCrash,
    "node_faults": NodeFault,
    "gpu_ooms": GpuOomFault,
    "stragglers": Straggler,
}

#: JSON type of every key of a plan and of its entries.  A key whose
#: field defaults to ``None`` also takes ``null``.
_KEY_TYPES = {
    "task_crashes": list,
    "node_faults": list,
    "gpu_ooms": list,
    "stragglers": list,
    "crash_probability": float,
    "seed": int,
    "task_id": int,
    "task_type": str,
    "stage": str,
    "attempts": list,
    "node": int,
    "at_time": float,
    "factor": float,
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _typed(where: str, value, kind: type):
    """``value`` if it has JSON type ``kind`` (a number may be an integer)."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _parse(cls, payload, where: str):
    """The plan, or one of its entries, of type ``cls`` from a JSON object."""
    _typed(where, payload, dict)
    defaults = {f.name: f.default for f in fields(cls)}
    for key in payload:
        if key not in defaults:
            raise ValueError(f"{where} has unknown key {key!r}")
    for key, default in defaults.items():
        if default is MISSING and key not in payload:
            raise ValueError(f"{where} is missing key {key!r}")
    kwargs = {}
    for key, value in payload.items():
        at = key if cls is FaultPlan else f"{where}.{key}"
        if value is not None or defaults[key] is not None:
            _typed(at, value, _KEY_TYPES[key])
        if key in _ENTRY_TYPES:
            value = tuple(
                _parse(_ENTRY_TYPES[key], entry, f"{key}[{i}]")
                for i, entry in enumerate(value)
            )
        elif key == "attempts":
            value = tuple(_typed(f"{at}[{i}]", a, int) for i, a in enumerate(value))
        elif key == "stage":
            try:
                value = Stage(value)
            except ValueError:
                raise ValueError(f"{at} must be a stage name, got {value!r}") from None
        kwargs[key] = value
    return cls(**kwargs)
