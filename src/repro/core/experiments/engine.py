"""Parallel sweep engine for the experiment layer (docs/sweeps.md).

Every figure of the paper's evaluation is a *sweep*: dozens of
independent ``(workflow, configuration)`` executions whose results are
assembled into tables.  This module turns each execution into a
declarative, picklable :class:`CellSpec` and executes batches of them
through one :class:`SweepEngine`, which

* **deduplicates** identical cells within one invocation (Figure 11's
  base design repeats the Figure 7/8 configurations verbatim),
* **fans out** cache misses over a persistent
  :class:`~repro.core.shard.ShardPool` (``--jobs N``, default
  ``os.cpu_count()``) whose workers import :mod:`repro` once, stream
  cell specs over a task queue, and write results straight into the
  on-disk cache, and
* **memoises** results in a content-addressed on-disk cache
  (:mod:`repro.core.experiments.cache`) keyed by a SHA-256 digest of the
  canonicalized cell spec plus a model-version fingerprint, so entries
  self-invalidate whenever the calibration constants or the cost-model /
  scheduler / simulator sources change.

The simulator is deterministic, so the engine guarantees strict
equivalence: serial, parallel, cold-cache, and warm-cache execution all
yield value-identical :class:`~repro.core.experiments.runners.RunMetrics`
(and therefore byte-identical rendered tables).  Both the fresh and the
cached path round-trip metrics through the same JSON record encoding to
keep that property structural rather than accidental.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.core import ledger as ledger_module
from repro.core import shard

from repro.algorithms import (
    KMeansWorkflow,
    MatmulFmaWorkflow,
    MatmulWorkflow,
    SyntheticWorkflow,
)
from repro.core.experiments.cache import (
    SweepCache,
    default_cache_dir,
    metrics_from_record,
    metrics_to_record,
)
from repro.core.experiments.runners import RunMetrics, run_workflow
from repro.core.persistence import to_jsonable
from repro.data import DatasetSpec, paper_datasets
from repro.hardware import ClusterSpec, StorageKind
from repro.runtime import SchedulingPolicy

#: Algorithms a cell can name; each maps to one workflow constructor.
ALGORITHMS = ("matmul", "matmul_fma", "kmeans", "synthetic")


@dataclass(frozen=True)
class CellSpec:
    """One executable sweep cell: workload plus configuration.

    Fully declarative and picklable, so a cell can be shipped to a worker
    process, canonicalized into a digest, and reconstructed from either.
    The dataset is named by ``dataset_key`` (a
    :func:`repro.data.paper_datasets` key) or carried inline as
    ``dataset_spec`` (for skew variants and synthetic sweeps); ``cluster``
    is ``None`` for the default Minotauro model or an inline
    :class:`~repro.hardware.ClusterSpec` for resource-sensitivity sweeps.
    """

    algorithm: str
    grid: int
    dataset_key: str | None = None
    dataset_spec: DatasetSpec | None = None
    n_clusters: int = 0
    iterations: int = 3
    parallel_ratio: float = 1.0
    use_gpu: bool = False
    storage: StorageKind = StorageKind.SHARED
    scheduling: SchedulingPolicy = SchedulingPolicy.GENERATION_ORDER
    cluster: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if (self.dataset_key is None) == (self.dataset_spec is None):
            raise ValueError(
                "exactly one of dataset_key / dataset_spec must be given"
            )
        known = paper_datasets()
        if self.dataset_key is not None and self.dataset_key not in known:
            raise ValueError(
                f"unknown dataset_key {self.dataset_key!r}; known keys: "
                + ", ".join(sorted(known))
            )

    def dataset(self) -> DatasetSpec:
        """Resolve the cell's dataset specification."""
        if self.dataset_spec is not None:
            return self.dataset_spec
        return paper_datasets()[self.dataset_key]


def build_workflow(spec: CellSpec):
    """Construct the cell's workflow object.

    The one constructor behind every simulated cell, every figure's
    blocking metadata (block size, task count, primary task type) and the
    CLI's workloads.
    """
    dataset = spec.dataset()
    if spec.algorithm == "matmul":
        return MatmulWorkflow(dataset, grid=spec.grid)
    if spec.algorithm == "matmul_fma":
        return MatmulFmaWorkflow(dataset, grid=spec.grid)
    if spec.algorithm == "kmeans":
        return KMeansWorkflow(
            dataset,
            grid_rows=spec.grid,
            n_clusters=spec.n_clusters,
            iterations=spec.iterations,
        )
    return SyntheticWorkflow(
        dataset, spec.grid, parallel_ratio=spec.parallel_ratio
    )


def execute_cell(spec: CellSpec) -> RunMetrics:
    """Run one cell on the simulated backend (the engine's unit of work)."""
    return run_workflow(
        build_workflow(spec),
        use_gpu=spec.use_gpu,
        storage=spec.storage,
        scheduling=spec.scheduling,
        cluster=spec.cluster,
        with_trace_digest=True,
    )


# --------------------------------------------------------------- digests

#: Modules whose source defines what a simulated result *means*.  Their
#: bytes are hashed into the model fingerprint, so editing a cost
#: formula, the cost model, a scheduler, the event engine or a metric
#: invalidates every cache entry.  The list follows what
#: :func:`execute_cell` runs for a (fault-free) sweep cell.
_MODEL_MODULES = (
    # build_workflow: the workflows' task costs, and the data and array
    # modules that size and place their blocks.
    "repro.algorithms.matmul",
    "repro.algorithms.matmul_fma",
    "repro.algorithms.kmeans",
    "repro.algorithms.synthetic",
    "repro.arrays.dsarray",
    "repro.data.blocking",
    "repro.data.dataset",
    # run_workflow: the cost model, the hardware, the runtime and the
    # simulated executor on the event engine.
    "repro.core.experiments.runners",
    "repro.perfmodel.costmodel",
    "repro.perfmodel.amdahl",
    "repro.perfmodel.calibration",
    "repro.hardware.specs",
    "repro.hardware.cluster",
    "repro.runtime.runtime",
    "repro.runtime.dag",
    "repro.runtime.task",
    "repro.runtime.scheduler",
    "repro.runtime.locality",
    "repro.runtime.backends.simulated",
    "repro.sim.engine",
    "repro.sim.events",
    "repro.sim.process",
    "repro.sim.resources",
    # The cached metrics and trace digest computed from the trace.
    "repro.tracing.trace",
    "repro.tracing.aggregate",
    "repro.tracing.golden",
)

_SOURCE_HASH: str | None = None


def _model_source_hash() -> str:
    """Hash of the model-defining module sources (cached per process)."""
    global _SOURCE_HASH
    if _SOURCE_HASH is None:
        digest = hashlib.sha256()
        for name in _MODEL_MODULES:
            module = importlib.import_module(name)
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(Path(module.__file__).read_bytes())
        _SOURCE_HASH = digest.hexdigest()
    return _SOURCE_HASH


def model_fingerprint() -> str:
    """Version stamp of the performance model behind every cached result.

    Combines the module-source hash with the *live* calibration constants
    (:data:`repro.perfmodel.calibration.CALIBRATION_NOTES`), so both a
    source edit and a runtime perturbation of a constant change the
    fingerprint — and with it every cell digest.
    """
    from repro.perfmodel.calibration import CALIBRATION_NOTES

    constants = {key: value for key, (value, _why) in CALIBRATION_NOTES.items()}
    digest = hashlib.sha256()
    digest.update(_model_source_hash().encode("utf-8"))
    digest.update(b"\0")
    digest.update(json.dumps(constants, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def canonical_cell(spec: CellSpec) -> str:
    """Canonical JSON form of one cell (sorted keys, compact separators)."""
    return json.dumps(to_jsonable(spec), sort_keys=True, separators=(",", ":"))


def cell_digest(spec: CellSpec, fingerprint: str | None = None) -> str:
    """Content address of one cell under one model version."""
    digest = hashlib.sha256()
    digest.update((fingerprint or model_fingerprint()).encode("utf-8"))
    digest.update(b"\0")
    digest.update(canonical_cell(spec).encode("utf-8"))
    return digest.hexdigest()


# --------------------------------------------------------------- engine


def _execute_to_cache(
    spec: CellSpec,
    digest: str,
    fingerprint: str,
    cache_root: str | None,
) -> tuple[dict[str, Any], float]:
    """Execute one cell and persist it; returns (record, wall seconds).

    Pool workers and the serial path both write each cell the moment it
    finishes, so cache population never depends on the rest of the
    batch, or the parent, surviving.  Writing from the worker also keeps
    the result's bytes off the task queue twice (the record still
    returns to the parent for the in-memory memo, but the disk write
    happens where the data is).  The atomic ``SweepCache.put`` tolerates
    concurrent writers.
    """
    started = time.perf_counter()
    record = metrics_to_record(execute_cell(spec))
    wall = time.perf_counter() - started
    if cache_root is not None:
        SweepCache(cache_root).put(
            digest,
            {
                "digest": digest,
                "fingerprint": fingerprint,
                "spec": to_jsonable(spec),
                "wall_seconds": round(wall, 6),
                "metrics": record,
            },
        )
    return record, wall


@dataclass
class SweepStats:
    """Counters of one engine's lifetime, rendered as the CLI stats line."""

    cells: int = 0
    executed: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    evictions: int = 0
    #: Wall-clock the cache hits originally cost to compute.
    wall_saved: float = 0.0
    #: Wall-clock spent executing misses (sum over workers).
    executed_wall: float = 0.0

    @property
    def misses(self) -> int:
        """Cells that had to be simulated."""
        return self.executed

    @property
    def hits(self) -> int:
        """Cells answered without simulating (cache, dedup)."""
        return self.cache_hits + self.memo_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of submitted cells answered without simulating."""
        return self.hits / self.cells if self.cells else 0.0

    def line(self) -> str:
        """The one-line summary printed by ``repro figures``."""
        return (
            f"[sweep] cells={self.cells} hits={self.cache_hits} "
            f"dedup={self.memo_hits} misses={self.misses} "
            f"evictions={self.evictions} hit_rate={self.hit_rate:.0%} "
            f"saved={self.wall_saved:.1f}s wall={self.executed_wall:.1f}s"
        )


class SweepEngine:
    """Executes batches of cells with dedup, caching, and fan-out.

    One engine instance is meant to span one logical invocation (e.g. the
    whole of ``repro figures all``): its in-memory memo deduplicates
    cells shared between figures, its stats accumulate across every
    :meth:`run_cells` call, and its worker pool — spawned lazily on the
    first parallel batch — stays warm for all of them.  Call
    :meth:`close` (or use the engine as a context manager) to reap the
    workers; an unclosed engine's daemon workers die with the process.

    The cache is the one record of a finished cell: each is written the
    moment it finishes, so a run SIGKILLed mid-sweep resumes by running
    it again, which answers every finished cell from the cache.  When
    caching is on, every cell execution is also journalled to an
    :class:`~repro.core.ledger.ExecutionLedger` at ``ledger.jsonl``
    under the cache dir: one OPEN marker per engine, then PENDING on
    submission, DISPATCHED per attempt and DONE / FAILED / QUARANTINED.

    ``jobs`` is the worker count (``None`` means the CPU count; below 1
    raises :class:`ValueError`).  ``chaos`` forwards a deterministic
    fault-injection plan to the worker pool, which runs its one built-in
    supervision policy.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        cache: bool = True,
        chaos=None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.stats = SweepStats()
        self._fingerprint = model_fingerprint()
        self._memo: dict[str, RunMetrics] = {}
        self._pool: shard.ShardPool | None = None
        self._cache: SweepCache | None = None
        self._ledger: ledger_module.ExecutionLedger | None = None
        self._chaos = chaos
        if cache:
            self._cache = SweepCache(
                Path(cache_dir) if cache_dir is not None else default_cache_dir()
            )
            self.stats.evictions += self._cache.prune(self._fingerprint)
            # The ledger lives beside the cache shards; SweepCache only
            # globs one level deeper (``*/*.json``), so the journal is
            # invisible to cache scans and pruning.
            self._ledger = ledger_module.ExecutionLedger(
                self._cache.root / "ledger.jsonl"
            )
            self._ledger.append(ledger_module.OPEN, fingerprint=self._fingerprint)

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool and the ledger (idempotent; the
        engine stays usable for serial and cached execution afterwards,
        which simply goes unjournalled)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None

    @classmethod
    def serial(cls) -> "SweepEngine":
        """A plain in-process engine: one worker, no on-disk cache.

        This is the default the figure runners fall back to, so calling a
        runner without an engine behaves exactly like the pre-engine code
        (pure computation, no filesystem writes) — just deduplicated.
        """
        return cls(jobs=1, cache=False)

    @property
    def fingerprint(self) -> str:
        """The model-version fingerprint baked into this engine's digests."""
        return self._fingerprint

    @property
    def cache_dir(self) -> Path | None:
        """Where results are persisted (``None`` when caching is off)."""
        return self._cache.root if self._cache is not None else None

    def run_cells(self, specs: Sequence[CellSpec]) -> list[RunMetrics]:
        """Execute a batch of cells; results align with the input order.

        Duplicate specs (within the batch or across earlier calls on the
        same engine) are simulated once; cache hits are loaded from disk;
        the remaining misses run in parallel when ``jobs > 1``.
        """
        specs = list(specs)
        digests = [cell_digest(spec, self._fingerprint) for spec in specs]
        self.stats.cells += len(specs)

        pending: dict[str, CellSpec] = {}
        for spec, digest in zip(specs, digests):
            if digest in self._memo:
                self.stats.memo_hits += 1
                continue
            if digest in pending:
                self.stats.memo_hits += 1
                continue
            record = self._cache.get(digest) if self._cache is not None else None
            if record is not None and record.get("fingerprint") == self._fingerprint:
                self._memo[digest] = metrics_from_record(record["metrics"])
                self.stats.cache_hits += 1
                self.stats.wall_saved += float(record.get("wall_seconds", 0.0))
                continue
            pending[digest] = spec

        if pending:
            items = list(pending.items())
            if self._ledger is not None:
                for digest, _spec in items:
                    self._ledger.append(ledger_module.PENDING, item=digest)
            # Nested fan-out degrades to serial: a pool worker must never
            # spin up a second process pool inside itself (fork bombs,
            # oversubscription, and a second interpreter warm-up per cell).
            parallel = self.jobs > 1 and len(items) > 1 and not shard.in_worker()
            # Both paths persist each cell the moment it finishes, so a
            # batch cut short by an exception or a kill keeps them all.
            cache_root = str(self._cache.root) if self._cache is not None else None
            if parallel:
                if self._pool is None:
                    self._pool = shard.ShardPool(self.jobs, chaos=self._chaos)
                merged = self._pool.run(
                    [
                        shard.ShardItem(
                            instance_id=digest,
                            fn=_execute_to_cache,
                            args=(spec, digest, self._fingerprint, cache_root),
                        )
                        for digest, spec in items
                    ],
                    on_event=self._journal_event,
                )
                outcomes = [merged[digest] for digest, _spec in items]
            else:
                outcomes = [
                    self._execute_journalled(digest, spec, cache_root)
                    for digest, spec in items
                ]
            for digest, (record, wall) in zip(pending, outcomes):
                # The fresh path round-trips through the same record
                # encoding as a cache hit, so both are value-identical.
                self._memo[digest] = metrics_from_record(record)
                self.stats.executed += 1
                self.stats.executed_wall += wall

        return [self._memo[digest] for digest in digests]

    def run_pairs(
        self, cells: Sequence[CellSpec]
    ) -> list[tuple[CellSpec, RunMetrics, RunMetrics]]:
        """Execute :func:`cells_product` batches as CPU/GPU pairs.

        Returns one ``(cpu cell, cpu metrics, gpu metrics)`` per pair; the
        cell is what the caller reads the pair's workflow metadata from.
        """
        results = self.run_cells(cells)
        return list(zip(cells[::2], results[::2], results[1::2]))

    # ------------------------------------------------------------ journal
    def _execute_journalled(
        self, digest: str, spec: CellSpec, cache_root: str | None
    ) -> tuple[dict[str, Any], float]:
        """Serial execution with the same cache write and ledger
        transitions as a worker."""
        if self._ledger is not None:
            self._ledger.append(ledger_module.DISPATCHED, item=digest, attempt=1)
        record, wall = _execute_to_cache(spec, digest, self._fingerprint, cache_root)
        if self._ledger is not None:
            self._ledger.append(
                ledger_module.DONE, item=digest, duration=round(wall, 6)
            )
        return record, wall

    def _journal_event(self, kind: str, info: dict) -> None:
        """Mirror pool supervision events into the execution ledger."""
        if self._ledger is None:
            return
        if kind == "dispatch":
            self._ledger.append(
                ledger_module.DISPATCHED,
                item=info["item"],
                worker=info["worker"],
                attempt=info["attempt"],
            )
        elif kind == "result":
            if info["status"] == "ok":
                _record, wall = info["payload"]
                self._ledger.append(
                    ledger_module.DONE,
                    item=info["item"],
                    worker=info["worker"],
                    duration=round(wall, 6),
                )
            else:
                error_kind, message = info["payload"]
                self._ledger.append(
                    ledger_module.FAILED,
                    item=info["item"],
                    worker=info["worker"],
                    error=f"{error_kind}: {message}",
                )
        elif kind == "quarantine":
            self._ledger.append(
                ledger_module.QUARANTINED,
                item=info["item"],
                error=info["reason"],
                attempt=info["attempts"],
            )


#: Grid sizes of §4.4.5: square grids for Matmul, row grids for K-means.
MATMUL_GRIDS = (16, 8, 4, 2, 1)
KMEANS_GRIDS = (256, 128, 64, 32, 16, 8, 4, 2, 1)


def cells_product(
    algorithm: str,
    grids: Sequence[int],
    dataset_key: str | None = None,
    dataset_spec: DatasetSpec | None = None,
    **common: Any,
) -> list[CellSpec]:
    """The common sweep shape: every grid on the CPU, then on the GPU.

    Cells are ordered grid-major, CPU before GPU — the order
    :meth:`SweepEngine.run_pairs` pairs results back up in.
    """
    return [
        CellSpec(
            algorithm=algorithm,
            grid=grid,
            dataset_key=dataset_key,
            dataset_spec=dataset_spec,
            use_gpu=use_gpu,
            **common,
        )
        for grid in grids
        for use_gpu in (False, True)
    ]
