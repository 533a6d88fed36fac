"""End-to-end proof of crash recovery: SIGKILL a chaotic sweep, resume it.

The CI ``chaos-shard`` job runs this script.  It

1. launches a child process that sweeps a small Matmul/K-means cell
   matrix through a sharded
   :class:`~repro.core.experiments.engine.SweepEngine` under a seeded
   :class:`~repro.core.chaos.ChaosPlan` (worker kills + slowdowns, so
   the run both loses workers and takes long enough to be killed),
2. SIGKILLs the child's whole process group once the execution ledger
   shows a few cells DONE but not all of them — the hard mid-sweep death
   the ledger exists for,
3. replays the journal and asserts that every cell it calls DONE
   already has a cache record whose metrics equal the DONE record (the
   premise that makes the ledger redundant with the cache),
4. runs the same sweep again in-process with ``resume=True`` and
   asserts

   * every ledger-finished cell is answered from the journal
     (``stats.resumed`` == cells DONE before the kill: 100%
     ledger-driven skip),
   * no finished cell is ever re-dispatched after the RESUME marker,
   * only the unfinished remainder is simulated, and
   * the resumed run completes every cell.

Run it directly (no arguments) from the repository root:

    PYTHONPATH=src python scripts/chaos_resume_check.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ledger as ledger_module  # noqa: E402
from repro.core.chaos import ChaosPlan  # noqa: E402
from repro.core.experiments.cache import SweepCache  # noqa: E402
from repro.core.experiments.engine import (  # noqa: E402
    SweepEngine,
    cell_digest,
    cells_product,
    model_fingerprint,
)

#: Kill the child once this many cells are DONE (and not all of them).
KILL_AFTER_DONE = 3

#: Give up if the child makes no progress for this long.
CHILD_TIMEOUT = 180.0


def sweep_cells() -> list:
    """The swept cells: both algorithms on the small datasets, three
    grids each, CPU and GPU."""
    return cells_product(
        "matmul", (8, 4, 2), dataset_key="matmul_128mb"
    ) + cells_product(
        "kmeans", (16, 8, 4), dataset_key="kmeans_100mb", n_clusters=10
    )


def chaos_plan() -> ChaosPlan:
    """Kills + heavy slowdowns: real crashes, and enough wall-clock that
    the parent reliably lands its SIGKILL mid-sweep."""
    return ChaosPlan(
        seed=13,
        kill_probability=0.25,
        slow_probability=0.5,
        slow_seconds=(0.3, 0.8),
        fault_attempts=1,
    )


def child_main(cache_dir: str) -> int:
    """The victim: a chaotic sharded sweep that expects to be killed."""
    with SweepEngine(jobs=2, cache_dir=cache_dir, chaos=chaos_plan()) as engine:
        engine.run_cells(sweep_cells())
        print(engine.stats.line())
    return 0


def wait_for_done(ledger_path: Path, child: subprocess.Popen, want: int) -> int:
    """Poll the journal until ``want`` cells are DONE; returns the count."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    while time.monotonic() < deadline:
        done = len(ledger_module.replay_ledger(ledger_path).done)
        if done >= want:
            return done
        if child.poll() is not None:
            return len(ledger_module.replay_ledger(ledger_path).done)
        time.sleep(0.05)
    raise SystemExit(f"child made no progress within {CHILD_TIMEOUT:.0f}s")


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child_main(sys.argv[2])

    cells = sweep_cells()
    fingerprint = model_fingerprint()
    digests = {cell_digest(spec, fingerprint) for spec in cells}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-resume-") as tmp:
        cache_dir = str(Path(tmp) / "sweeps")
        ledger_path = Path(cache_dir) / "ledger.jsonl"

        # New session so the SIGKILL reaches the child's pool workers too,
        # exactly like an OOM-killer or job-scheduler kill would.
        child = subprocess.Popen(
            [sys.executable, __file__, "--child", cache_dir],
            start_new_session=True,
        )
        try:
            done_count = wait_for_done(ledger_path, child, KILL_AFTER_DONE)
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)

        before = ledger_module.replay_ledger(ledger_path)
        done_before = set(before.done)
        print(
            f"[parent] killed child after {done_count} DONE cells "
            f"(journal: {before.events} events, torn={before.torn}, "
            f"unfinished={len(before.unfinished)})"
        )
        assert done_before, "child was killed before finishing any cell"
        assert done_before <= digests, "ledger holds cells the sweep never ran"
        if done_before == digests:
            raise SystemExit(
                "child finished every cell before the kill; nothing to "
                "resume — lower KILL_AFTER_DONE or slow the chaos plan"
            )

        cache = SweepCache(cache_dir)
        for digest in sorted(done_before):
            cached = cache.get(digest)
            assert cached is not None, f"DONE cell {digest} is no cache hit"
            assert cached["metrics"] == before.items[digest].record, (
                f"DONE cell {digest}: cache and journal records differ"
            )
        print(f"[parent] all {len(done_before)} DONE cells are cache hits")

        with SweepEngine(jobs=2, cache_dir=cache_dir, resume=True) as engine:
            results = engine.run_cells(cells)
            stats = engine.stats
            print(stats.line())

        assert len(results) == len(cells), "resumed run did not complete"
        assert stats.resumed == len(done_before), (
            f"ledger-driven skip was not 100%: {stats.resumed} resumed "
            f"vs {len(done_before)} DONE in the journal"
        )
        assert stats.executed == len(digests) - len(done_before) - stats.cache_hits, (
            "resumed run re-simulated cells the ledger or cache already held"
        )

        # No finished cell may be re-dispatched after the RESUME marker.
        redispatched = set()
        in_resumed_session = False
        for entry in ledger_module.iter_events(ledger_path):
            if entry["state"] == ledger_module.RESUME:
                in_resumed_session = True
            elif (
                in_resumed_session
                and entry["state"] == ledger_module.DISPATCHED
                and entry["item"] in done_before
            ):
                redispatched.add(entry["item"])
        assert not redispatched, (
            f"{len(redispatched)} finished cell(s) re-dispatched after resume"
        )

        after = ledger_module.replay_ledger(ledger_path)
        assert set(after.done) == digests, "journal does not show a full sweep"

    print(
        f"[parent] OK: resume skipped {stats.resumed}/{len(digests)} cells "
        f"from the ledger and simulated the remaining {stats.executed}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
