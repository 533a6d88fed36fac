"""End-to-end proof of crash recovery: SIGKILL a chaotic sweep, run it again.

The sweep cache is the one record of a finished cell: the serial path
and every pool worker write a cell's record the moment it finishes, so a
sweep killed mid-run resumes by running it again.  The CI
``chaos-shard`` job runs this script.  It

1. launches a child process that sweeps a small Matmul/K-means cell
   matrix through a sharded
   :class:`~repro.core.experiments.engine.SweepEngine` under a seeded
   :class:`~repro.core.chaos.ChaosPlan` (worker kills + slowdowns, so
   the run both loses workers and takes long enough to be killed),
2. SIGKILLs the child's whole process group once the execution journal
   shows at least three cells DONE,
3. asserts that every cell the journal calls DONE has a cache record,
4. runs the same sweep again in-process on the same cache and asserts

   * every cached cell, so at least every DONE one, is answered from
     the cache,
   * no cached cell is dispatched after the re-run's own OPEN marker,
   * the re-run executes exactly the cells the cache lacked, and
   * its results equal those of a serial, cache-less run.

Run it directly (no arguments) from the repository root:

    PYTHONPATH=src python scripts/chaos_resume_check.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.chaos import ChaosPlan  # noqa: E402
from repro.core.experiments.cache import SweepCache  # noqa: E402
from repro.core.experiments.engine import (  # noqa: E402
    SweepEngine,
    cell_digest,
    cells_product,
    model_fingerprint,
)
from repro.core.ledger import DISPATCHED, DONE, OPEN  # noqa: E402

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


def journal(path: Path) -> list[dict]:
    """The journal's complete events; a line still being written (no
    newline yet) is left out."""
    try:
        lines = path.read_bytes().split(b"\n")
    except FileNotFoundError:
        return []
    return [json.loads(line) for line in lines[:-1] if line]


def items_in(events: list[dict], state: str) -> set[str]:
    """The items of every event in ``state``."""
    return {event["item"] for event in events if event["state"] == state}


def wait_for_done(ledger_path: Path, child: subprocess.Popen, want: int) -> int:
    """Poll the journal until ``want`` cells are DONE; returns the count."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    while time.monotonic() < deadline:
        done = len(items_in(journal(ledger_path), DONE))
        if done >= want or child.poll() is not None:
            return done
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

        done_before = items_in(journal(ledger_path), DONE)
        print(
            f"[parent] killed child after {done_count} DONE cells "
            f"(exit {child.returncode}, {len(done_before)} DONE in the journal)"
        )
        if done_before == digests:
            raise SystemExit(
                "child finished every cell before the kill; nothing to "
                "resume — lower KILL_AFTER_DONE or slow the chaos plan"
            )
        assert child.returncode == -signal.SIGKILL, (
            f"child exited with {child.returncode} before the kill"
        )
        assert len(done_before) >= KILL_AFTER_DONE, (
            f"child was killed after only {len(done_before)} DONE cells"
        )
        assert done_before <= digests, "journal holds cells the sweep never ran"

        cache = SweepCache(cache_dir)
        cached = {digest for digest in digests if cache.get(digest) is not None}
        assert done_before <= cached, (
            f"{len(done_before - cached)} DONE cell(s) have no cache record"
        )
        lacking = digests - cached
        print(
            f"[parent] all {len(done_before)} DONE cells are cached; the "
            f"cache holds {len(cached)} of {len(digests)} cells"
        )

        with SweepEngine(jobs=2, cache_dir=cache_dir) as engine:
            results = engine.run_cells(cells)
            stats = engine.stats
            print(stats.line())

        events = journal(ledger_path)
        opens = [index for index, event in enumerate(events)
                 if event["state"] == OPEN]
        assert len(opens) == 2, f"expected two OPEN markers, got {len(opens)}"
        rerun = events[opens[-1]:]
        dispatched = items_in(rerun, DISPATCHED)
        assert not dispatched & cached, (
            f"{len(dispatched & cached)} cached cell(s) dispatched again"
        )
        assert dispatched == lacking, (
            "re-run dispatched other cells than the ones the cache lacked"
        )
        assert stats.cache_hits == len(cached), (
            f"{stats.cache_hits} cache hits for {len(cached)} cached cells"
        )
        assert stats.executed == len(lacking), (
            f"re-run executed {stats.executed} cells; the cache lacked {len(lacking)}"
        )
        assert items_in(events, DONE) == digests, "journal does not show a full sweep"
        assert results == SweepEngine.serial().run_cells(cells), (
            "re-run results differ from a serial run"
        )

    print(
        f"[parent] OK: the re-run answered {stats.cache_hits}/{len(digests)} "
        f"cells from the cache and simulated the remaining {stats.executed}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
