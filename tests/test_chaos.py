"""Chaos-harness contracts: keyed decisions are deterministic and
well-distributed, and a pool under real injected kills/hangs/slowdowns
still merges bit-identically to a serial run — with quarantine kicking
in, not an infinite retry loop, when a plan is poisonous by design."""

from __future__ import annotations

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
from repro.core.shard import ShardCrashError, ShardItem, ShardPool
from repro.core.supervise import REASON_HEARTBEAT, SupervisionPolicy
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

    def test_json_round_trip(self):
        plan = ChaosPlan(seed=23, kill_probability=0.25, hang_probability=0.1,
                         slow_probability=0.25, hang_seconds=60.0,
                         slow_seconds=(0.05, 0.2), fault_attempts=2)
        assert ChaosPlan.from_json(plan.to_json()) == plan

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


def _chaos_policy() -> SupervisionPolicy:
    return SupervisionPolicy(max_attempts=3, kill_grace=0.5)


def _mixed_plan() -> ChaosPlan:
    """Kills, hangs past any deadline, and slowdowns in one run."""
    return ChaosPlan(
        seed=17,  # on _CHAOS_KEYS: a kill, a hang, a clean run, a slowdown
        kill_probability=0.25,
        hang_probability=0.125,
        slow_probability=0.25,
        hang_seconds=60.0,
        slow_seconds=(0.05, 0.2),
        fault_attempts=1,
    )


def _mixed_policy() -> SupervisionPolicy:
    # Frozen heartbeats, not the 60 s sleep, must reclaim the hung worker.
    return SupervisionPolicy(
        heartbeat_interval=0.2, heartbeat_grace=3.0, max_attempts=3,
        kill_grace=0.5,
    )


@pytest.fixture(scope="module")
def serial_digests() -> dict[str, str]:
    return {key: _digest_golden_cell(key) for key in _CHAOS_KEYS}


class TestChaosBitIdentity:
    @pytest.mark.parametrize(
        "start_method, plan, policy",
        [
            ("fork", _chaos_plan(), _chaos_policy()),
            ("spawn", _chaos_plan(), _chaos_policy()),
            ("fork", _mixed_plan(), _mixed_policy()),
        ],
        ids=["fork", "spawn", "mixed"],
    )
    def test_chaotic_shards_match_serial_golden_digests(
        self, serial_digests, start_method, plan, policy
    ):
        """Host faults may delay results but never change them: kills,
        hangs and slowdowns leave the merged digests bit-identical to
        serial."""
        kills = [k for k in _CHAOS_KEYS if plan.decide(k, 1).kind == KILL]
        hangs = [k for k in _CHAOS_KEYS if plan.decide(k, 1).kind == HANG]
        assert kills, "seeded plan landed no kills; test would prove nothing"
        with ShardPool(
            workers=2,
            start_method=start_method,
            policy=policy,
            chaos=plan,
        ) as pool:
            report = pool.run_report(
                [
                    ShardItem(instance_id=key, fn=_digest_golden_cell, args=(key,))
                    for key in _CHAOS_KEYS
                ]
            )
        assert report.ok
        assert report.results == serial_digests
        assert report.worker_crashes >= len(kills)
        assert report.worker_kills >= len(hangs)
        # Every killed or hung instance needed (exactly) a second dispatch.
        assert set(report.attempts) == set(kills) | set(hangs)
        assert all(report.attempts[k] == 2 for k in kills + hangs)


class TestChaosFailurePaths:
    def test_poison_plan_quarantines_after_the_attempt_budget(self):
        """fault_attempts >= max_attempts makes an instance kill every
        worker it touches; the supervisor must quarantine it rather than
        burn the whole respawn budget looping."""
        plan = ChaosPlan(seed=0, kill_probability=1.0, fault_attempts=99)
        with ShardPool(
            workers=2,
            start_method="fork",
            policy=SupervisionPolicy(max_attempts=2, kill_grace=0.5),
            chaos=plan,
        ) as pool:
            report = pool.run_report(
                [ShardItem(instance_id="poison", fn=_identity, args=(1,))]
            )
        assert report.results == {}
        assert "poison" in report.quarantined
        reason = report.quarantined["poison"]
        assert "killed its worker 2 time(s)" in reason
        assert f"exit code {CHAOS_EXIT_CODE}" in reason

    def test_run_raises_shard_crash_error_for_quarantined_instances(self):
        plan = ChaosPlan(seed=0, kill_probability=1.0, fault_attempts=99)
        with ShardPool(
            workers=1,
            start_method="fork",
            policy=SupervisionPolicy(max_attempts=2, kill_grace=0.5),
            chaos=plan,
        ) as pool:
            with pytest.raises(ShardCrashError, match="quarantined after"):
                pool.run([ShardItem(instance_id=0, fn=_identity, args=(1,))])

    def test_injected_hang_is_detected_by_heartbeats(self):
        """A chaos hang suspends the worker's beats, so the heartbeat
        timeout — not the 60 s sleep — must reclaim the worker, and the
        clean retry completes the instance."""
        plan = ChaosPlan(
            seed=0, hang_probability=1.0, hang_seconds=60.0, fault_attempts=1
        )
        policy = SupervisionPolicy(
            heartbeat_interval=0.2,
            heartbeat_grace=3.0,
            max_attempts=3,
            kill_grace=0.3,
        )
        events = []
        with ShardPool(
            workers=1, start_method="fork", policy=policy, chaos=plan
        ) as pool:
            report = pool.run_report(
                [ShardItem(instance_id="sleepy", fn=_identity, args=(5,))],
                on_event=lambda kind, info: events.append((kind, info)),
            )
        assert report.ok
        assert report.results == {"sleepy": 5}
        assert report.worker_kills >= 1
        kills = [info for kind, info in events if kind == "kill"]
        assert any(k["reason"] == REASON_HEARTBEAT for k in kills)
        assert report.attempts == {"sleepy": 2}
