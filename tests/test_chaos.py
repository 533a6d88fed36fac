"""Chaos-harness contracts: keyed decisions are deterministic and
well-distributed, and the default pool under real injected
kills/hangs/slowdowns still returns bit-identical results to a serial
run — with quarantine kicking in, not an infinite retry loop, when a
plan is poisonous by design."""

from __future__ import annotations

import threading

import pytest

from repro.core.chaos import (
    CHAOS_EXIT_CODE,
    HANG,
    KILL,
    NONE,
    SLOW,
    ChaosAction,
    ChaosPlan,
)
from repro.core import shard
from repro.core.shard import ShardCrashError, ShardItem, ShardPool
from tests.test_shard import _SHARD_KEYS, _digest_golden_cell, _identity


class TestChaosPlan:
    def test_decisions_are_keyed_not_streamed(self):
        """The verdict for (instance, attempt) depends only on the plan
        values — two equal plans agree on every draw, in any order."""
        a = ChaosPlan(seed=3, kill_probability=0.2, hang_probability=0.2,
                      slow_probability=0.3)
        b = ChaosPlan(seed=3, kill_probability=0.2, hang_probability=0.2,
                      slow_probability=0.3)
        keys = [f"cell-{i}" for i in range(50)]
        forward = [a.decide(k, 1) for k in keys]
        backward = [b.decide(k, 1) for k in reversed(keys)]
        assert forward == list(reversed(backward))
        # And a different seed actually changes the schedule.
        c = ChaosPlan(seed=4, kill_probability=0.2, hang_probability=0.2,
                      slow_probability=0.3)
        assert [c.decide(k, 1) for k in keys] != forward

    def test_probability_one_always_fires(self):
        plan = ChaosPlan(seed=0, kill_probability=1.0)
        assert all(plan.decide(i, 1).kind == KILL for i in range(20))

    def test_faults_stop_after_fault_attempts(self):
        plan = ChaosPlan(seed=0, kill_probability=1.0, fault_attempts=2)
        assert plan.decide("x", 1).kind == KILL
        assert plan.decide("x", 2).kind == KILL
        assert plan.decide("x", 3) == ChaosAction(NONE)

    def test_zero_probabilities_are_a_noop_plan(self):
        plan = ChaosPlan(seed=99)
        assert all(plan.decide(i, 1) == ChaosAction(NONE) for i in range(20))

    def test_slow_sleep_stays_in_the_configured_range(self):
        plan = ChaosPlan(seed=1, slow_probability=1.0, slow_seconds=(0.2, 0.5))
        actions = [plan.decide(i, 1) for i in range(100)]
        assert all(a.kind == SLOW for a in actions)
        assert all(0.2 <= a.seconds <= 0.5 for a in actions)
        # Hangs carry their sleep too.
        hung = ChaosPlan(seed=1, hang_probability=1.0, hang_seconds=12.0)
        assert hung.decide("x", 1) == ChaosAction(HANG, 12.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="kill_probability"):
            ChaosPlan(kill_probability=1.5)
        with pytest.raises(ValueError, match="sum to <= 1"):
            ChaosPlan(kill_probability=0.6, hang_probability=0.6)
        with pytest.raises(ValueError, match="slow_seconds"):
            ChaosPlan(slow_seconds=(0.5, 0.1))


# ------------------------------------------------ chaos under real pools

#: A subset of the golden-matrix cells (the full set is exercised by
#: tests/test_shard.py); enough for the seeded plan to land real faults.
_CHAOS_KEYS = _SHARD_KEYS[:4]


def _chaos_plan() -> ChaosPlan:
    return ChaosPlan(
        seed=0,  # on _CHAOS_KEYS: two kills, one slowdown, one clean run
        kill_probability=0.35,
        slow_probability=0.35,
        slow_seconds=(0.01, 0.05),
        fault_attempts=1,
    )


def _mixed_plan() -> ChaosPlan:
    """Kills, hangs past the silence window, and slowdowns in one run."""
    return ChaosPlan(
        seed=17,  # on _CHAOS_KEYS: a kill, a hang, a clean run, a slowdown
        kill_probability=0.25,
        hang_probability=0.125,
        slow_probability=0.25,
        hang_seconds=60.0,
        slow_seconds=(0.05, 0.2),
        fault_attempts=1,
    )


def _retried(events: list) -> dict:
    """Dispatch count of every instance that needed more than one."""
    attempts = {}
    for kind, info in events:
        if kind == "dispatch":
            attempts[info["item"]] = info["attempt"]
    return {item: n for item, n in attempts.items() if n > 1}


@pytest.fixture(scope="module")
def serial_digests() -> dict[str, str]:
    return {key: _digest_golden_cell(key) for key in _CHAOS_KEYS}


class TestChaosBitIdentity:
    @pytest.mark.parametrize(
        "start_method, plan",
        [
            ("fork", _chaos_plan()),
            ("spawn", _chaos_plan()),
            ("fork", _mixed_plan()),
        ],
        ids=["fork", "spawn", "mixed"],
    )
    def test_chaotic_shards_match_serial_golden_digests(
        self, serial_digests, start_method, plan
    ):
        """Host faults may delay results but never change them: kills,
        hangs and slowdowns leave the digests bit-identical to serial."""
        kills = [k for k in _CHAOS_KEYS if plan.decide(k, 1).kind == KILL]
        hangs = [k for k in _CHAOS_KEYS if plan.decide(k, 1).kind == HANG]
        assert kills, "seeded plan landed no kills; test would prove nothing"
        events = []
        with ShardPool(workers=2, start_method=start_method, chaos=plan) as pool:
            merged = pool.run(
                [
                    ShardItem(instance_id=key, fn=_digest_golden_cell, args=(key,))
                    for key in _CHAOS_KEYS
                ],
                on_event=lambda kind, info: events.append((kind, info)),
            )
        assert merged == serial_digests
        # A kill is reaped as a crash, a hang ends in a heartbeat kill.
        crashed = [
            info["item"]
            for kind, info in events
            if kind == "retry" and info["reason"] == f"exit code {CHAOS_EXIT_CODE}"
        ]
        assert sorted(crashed) == sorted(kills)
        assert sum(1 for kind, _ in events if kind == "kill") >= len(hangs)
        # Every killed or hung instance needed (exactly) a second dispatch.
        assert _retried(events) == {k: 2 for k in kills + hangs}


class TestChaosFailurePaths:
    def test_poison_plan_quarantines_after_the_attempt_budget(self):
        """fault_attempts >= 2 makes an instance kill every worker it
        touches; the pool must quarantine it after its two attempts
        rather than burn the whole respawn budget looping."""
        plan = ChaosPlan(seed=0, kill_probability=1.0, fault_attempts=99)
        events = []
        with ShardPool(workers=2, start_method="fork", chaos=plan) as pool:
            with pytest.raises(ShardCrashError):
                pool.run(
                    [ShardItem(instance_id="poison", fn=_identity, args=(1,))],
                    on_event=lambda kind, info: events.append((kind, info)),
                )
        (verdict,) = [info for kind, info in events if kind == "quarantine"]
        assert verdict["item"] == "poison"
        assert verdict["attempts"] == 2
        assert "killed its worker 2 time(s)" in verdict["reason"]
        assert f"exit code {CHAOS_EXIT_CODE}" in verdict["reason"]
        assert not [info for kind, info in events if kind == "result"]

    def test_run_raises_shard_crash_error_for_quarantined_instances(self):
        plan = ChaosPlan(seed=0, kill_probability=1.0, fault_attempts=99)
        with ShardPool(workers=1, start_method="fork", chaos=plan) as pool:
            with pytest.raises(ShardCrashError, match="quarantined after 2 of 2"):
                pool.run([ShardItem(instance_id=0, fn=_identity, args=(1,))])

    def test_quarantine_reason_names_every_loss_mode(self, monkeypatch):
        """An instance that kills its first worker and freezes its
        second is quarantined with both losses named."""
        monkeypatch.setattr(shard, "_SILENCE_SECONDS", 1.0)
        plan = ChaosPlan(
            seed=2,  # instance 0: a kill on attempt 1, a hang on attempt 2
            kill_probability=0.5,
            hang_probability=0.5,
            hang_seconds=60.0,
            fault_attempts=2,
        )
        assert [plan.decide(0, n).kind for n in (1, 2)] == [KILL, HANG]
        with ShardPool(workers=1, start_method="fork", chaos=plan) as pool:
            with pytest.raises(ShardCrashError) as excinfo:
                pool.run([ShardItem(instance_id=0, fn=_identity, args=(1,))])
        assert str(excinfo.value) == (
            "instance 0 froze its worker 1 time(s) and killed its worker "
            "1 time(s) (no heartbeat for 1s); quarantined after 2 of 2 attempt(s)"
        )

    def test_injected_hang_is_detected_by_heartbeats(self, monkeypatch):
        """The default pool reclaims a hung worker.  A chaos hang
        suspends the worker's beats, so the silence window — not the
        60 s sleep — must end it, and the clean retry completes the
        instance.  The window is shortened to 1 s through the module
        constant; fork keeps start-up well inside it.  ``run`` is driven
        from a thread so a pool that never reclaims the worker fails the
        join timeout instead of wedging the suite."""
        monkeypatch.setattr(shard, "_SILENCE_SECONDS", 1.0)
        plan = ChaosPlan(
            seed=0, hang_probability=1.0, hang_seconds=60.0, fault_attempts=1
        )
        events = []
        merged = {}

        def drive() -> None:
            with ShardPool(workers=1, start_method="fork", chaos=plan) as pool:
                merged.update(
                    pool.run(
                        [ShardItem(instance_id="sleepy", fn=_identity, args=(5,))],
                        on_event=lambda kind, info: events.append((kind, info)),
                    )
                )

        runner = threading.Thread(target=drive, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "the pool never reclaimed the hung worker"
        assert merged == {"sleepy": 5}
        kills = [info for kind, info in events if kind == "kill"]
        assert [k["detail"] for k in kills] == ["no heartbeat for 1s"]
        assert _retried(events) == {"sleepy": 2}
