"""Deterministic process-level chaos injection for shard workers.

:mod:`repro.faults` injects failures into the *simulated* cluster; this
module injects failures into the *real* processes that run simulations —
the host-side mirror.  A :class:`ChaosPlan` is shipped to every
:class:`~repro.core.shard.ShardPool` worker, which consults it before
executing each instance:

* **kill** — the worker calls ``os._exit`` before touching the
  instance, exercising the crash re-dispatch path with a real SIGKILL
  -grade death;
* **hang** — the worker suspends its heartbeat thread and sleeps,
  impersonating a process that is alive but no longer responding (a
  stuck C extension, a SIGSTOP); only the pool's heartbeat check can
  reclaim it;
* **slow** — the worker sleeps briefly before running the instance,
  modelling a straggler.

All decisions are *keyed*, not streamed: the verdict for an instance is
``Random(f"{seed}|{instance}|{attempt}")``, so it depends only on the
plan, the instance id, and the attempt number — never on which worker
draws it or in what order.  Two properties follow: a chaos run is
exactly reproducible from its seed, and because chaos only delays or
kills processes (never alters what a function computes), a sharded run
under chaos must stay bit-identical to a serial run of the same
instances.  ``tests/test_chaos.py`` holds the pool to that.

By default faults only fire on the first attempt
(``fault_attempts=1``), so a retried instance completes and a plan can
never spin a pool into quarantining everything unless it is explicitly
told to (``fault_attempts >= 2``, the pool's attempt budget).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Exit code chaos kills use, distinguishable from real crashes in logs.
CHAOS_EXIT_CODE = 77

#: Action kinds in decision order.
KILL = "kill"
HANG = "hang"
SLOW = "slow"
NONE = "none"


@dataclass(frozen=True)
class ChaosAction:
    """One verdict: what a worker does before running an instance."""

    kind: str
    #: Sleep duration for ``hang``/``slow``; 0 otherwise.
    seconds: float = 0.0


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, picklable description of host-level misbehaviour.

    Probabilities are per (instance, attempt) and mutually exclusive —
    one uniform draw is partitioned as kill | hang | slow | none — so
    they must sum to at most 1.
    """

    seed: int = 0
    kill_probability: float = 0.0
    hang_probability: float = 0.0
    slow_probability: float = 0.0
    #: How long a hung worker sleeps; make this comfortably larger than
    #: the pool's silence window so the hang is reclaimed, not outlived.
    hang_seconds: float = 3600.0
    #: Straggler sleep is drawn uniformly from this (min, max) range.
    slow_seconds: tuple[float, float] = (0.05, 0.25)
    #: Faults only fire on attempts <= this (1-based); later attempts
    #: run clean so retries converge.
    fault_attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_probability", "hang_probability", "slow_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        total = (
            self.kill_probability + self.hang_probability + self.slow_probability
        )
        if total > 1.0:
            raise ValueError(
                f"fault probabilities must sum to <= 1, got {total}"
            )
        lo, hi = self.slow_seconds
        if lo < 0 or hi < lo:
            raise ValueError(
                f"slow_seconds must be a (min, max) range, got {self.slow_seconds}"
            )

    def decide(self, instance_id: object, attempt: int) -> ChaosAction:
        """The keyed verdict for one (instance, attempt).

        Deterministic across processes and start methods: ``Random``
        seeds strings through SHA-512, independent of hash
        randomisation.
        """
        if attempt > self.fault_attempts:
            return ChaosAction(NONE)
        rng = random.Random(  # repro: disable=DL004 - explicitly keyed seed
            f"{self.seed}|{_instance_key(instance_id)}|{attempt}"
        )
        draw = rng.random()
        if draw < self.kill_probability:
            return ChaosAction(KILL)
        draw -= self.kill_probability
        if draw < self.hang_probability:
            return ChaosAction(HANG, self.hang_seconds)
        draw -= self.hang_probability
        if draw < self.slow_probability:
            lo, hi = self.slow_seconds
            return ChaosAction(SLOW, lo + (hi - lo) * rng.random())
        return ChaosAction(NONE)


def _instance_key(instance_id: object) -> str:
    """Stable string key of an instance id (ids are hashable + sortable
    by the pool contract; str/int cover every in-repo caller)."""
    try:
        return json.dumps(instance_id, sort_keys=True)
    except TypeError:
        return repr(instance_id)
