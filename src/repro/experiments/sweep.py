"""Parallel sweep orchestrator: pluggable cell execution with caching.

The paper's evaluation is a grid of dozens of *independent* cells
(attacks x models x datasets, defenses x models x attacks, ...).  With
the intra-round engine fully vectorised, wall-clock for regenerating
the tables is dominated by the outer loop over cells — which this
module parallelises one layer up:

* table/figure generators declare their cells as data — a
  :class:`CellSpec` holding one :class:`~repro.config.ExperimentConfig`,
  the key of a shared dataset, the evaluation cutoffs and a cell
  *kind*;
* a :class:`SweepRunner` decides what needs to run (cache hits, cell
  keys, stats) and hands the pending cells to a pluggable
  :class:`~repro.experiments.backend.ExecutionBackend`:
  :class:`~repro.experiments.backend.LocalBackend` runs them inline or
  on a self-healing pool of forked workers (the default, single
  machine), and
  :class:`~repro.experiments.backend.SharedCacheBackend` lets N
  independent worker processes cooperatively drain one grid using only
  the cache directory — atomic lease files with heartbeats, stale-lease
  reclamation when a worker dies mid-cell;
* a content-addressed on-disk cache (``cache_dir``) keyed by a stable
  hash of the experiment config, the dataset *content* fingerprint,
  the evaluation cutoffs and a code-version tag lets re-runs skip
  completed cells and interrupted sweeps resume — cache entries are
  written through :mod:`repro.persistence` (atomically, with a sha256
  digest verified on every read) as each cell finishes.

Per-cell determinism already holds (every stream is seeded per cell),
so parallel execution order cannot leak into results: a cell's
value depends only on its spec and its dataset, never on which worker
ran it or when.  The parity suite in ``tests/test_sweep.py`` asserts
byte-identical cells between the pooled and sequential paths, and
``tests/test_distributed_backend.py`` extends the same contract to the
multi-worker shared-cache path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.config import DatasetConfig, ExperimentConfig, identity_record
from repro.datasets.base import InteractionDataset
from repro.datasets.loaders import load_dataset
from repro.experiments.backend import (
    BackendReport,
    CellFailure,
    ExecutionBackend,
    LocalBackend,
    SharedCacheBackend,
    SweepExecutionError,
)
from repro.experiments.runner import Cell, run_cells
from repro.federated.simulation import FederatedSimulation
from repro.metrics.divergence import pairwise_kl, user_coverage_ratio
from repro.persistence import read_sweep_entry, save_sweep_entry

__all__ = [
    "CACHE_VERSION",
    "BackendReport",
    "CellSpec",
    "CellFailure",
    "ExecutionBackend",
    "LocalBackend",
    "SharedCacheBackend",
    "SweepDryRun",
    "SweepExecutionError",
    "SweepStats",
    "SweepRunner",
    "cells_from_values",
    "cell_cache_key",
    "dataset_fingerprint",
    "execute_cell",
    "register_cell_kind",
]

#: Code-relevant version tag baked into every cache key.  Bump whenever
#: a change alters what any cell computes (engine semantics, evaluation
#: maths, cell-kind payload meaning) so stale caches self-invalidate.
#: v2: attack target-step gradients moved to the stacked axis-norm
#: kernel (stacked_step_gradients), which differs from the old per-
#: target 1-D BLAS-dot norm in the last ulp when clipping fires.
#: v3: the kernel dispatch layer pinned sequential accumulation orders
#: for the Krum-family pairwise distances (was batched BLAS GEMM) and
#: the stacked/mining norms (was pairwise-blocked add.reduce), moving
#: defended and attacked cells by last-ulp amounts.
#: v4: ExperimentConfig grew a FaultConfig (hashed via asdict like the
#: rest of the config, so fault parameters enter every key); zero-fault
#: values are unchanged but the key layout is not.
#: v5: ExperimentConfig grew an AsyncConfig (``asynchrony``), so every
#: asynchrony parameter enters every key; synchronous values are
#: unchanged but the key layout is not.
#: v6: cells no longer carry an ``engine`` (every cell runs the batch
#: engine; the loop engine is a test reference only), so the key
#: layout lost that field; values are unchanged.
#: v7: NCF evaluation scores moved in the last ulp (factorised
#: ``score_matrix``) and ER@K's tie at the K boundary is now defined
#: (smaller item id first), so a v6 NCF or ``one_then_copy`` cell is
#: not guaranteed reproducible by this code.
#: v8: the config enters the key as its identity record, which leaves
#: out every knob — ``train.eval_chunk_users`` newly so; values are
#: unchanged but the key layout is not.
#: v9: the client-side defense's Re1/Re2 terms are computed in a
#: collapsed, batch-independent form, which moves regularised cells in
#: the last ulp; other cells are unchanged.
#: v10: the NCF tower is row-stable (row-wise projection, contiguous
#: ``W.T``), which moves NCF cells in the last ulp; MF cells are unchanged.
#: v11: the staleness pair lives once, on ``FaultConfig``
#: (``AsyncConfig`` lost ``staleness_discount`` / ``max_staleness``),
#: so the identity record's layout changed; values are unchanged.
#: v12: ``AsyncConfig`` lost its churn rate (churn is
#: ``FaultConfig.dropout_rate``, drawn from the "fault-plan" stream), so
#: churn cells move and the saved counters changed layout; other cells'
#: values are unchanged.
CACHE_VERSION = "sweep-v12"


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell, declared as data.

    ``dataset_key`` names an entry of the dataset mapping passed to
    :meth:`SweepRunner.run` (the paper's tables share one dataset
    across a whole table).  ``ks`` lists the evaluation cutoffs; one
    result pair is produced per cutoff (``None`` means the config's
    ``train.top_k``).  ``kind`` selects the executor: ``"er_hr"`` runs
    the federated simulation and reports ER@K / HR@K percentages,
    ``"pkl_ucr"`` trains a clean FRS and reports the PKL / UCR
    closeness metrics of Table II for each popular-set size in
    ``payload``.
    """

    config: ExperimentConfig
    dataset_key: str = "default"
    ks: tuple[int, ...] | None = None
    kind: str = "er_hr"
    #: Kind-specific extra parameters (hashed into the cache key).
    payload: tuple = ()


@dataclass(frozen=True)
class SweepStats:
    """Execution accounting of one (or several accumulated) sweep runs.

    Every degradation path a sweep can take is counted here, never
    silent: retried pooled cells (``retries``), stale-lease takeovers from
    dead workers (``reclaimed``), corrupt cache entries moved aside
    and re-executed (``quarantined``), cells another worker finished
    for us (``peer_served``), and cells that stayed unfinished after
    every recovery path (``failed``).
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Pooled cell executions rerun after their worker crashed or the
    #: cell overran ``cell_timeout``.
    retries: int = 0
    #: Cells that still had no result when every recovery path ran out
    #: (also enumerated on the raised :class:`SweepExecutionError`).
    failed: int = 0
    #: Stale leases of dead workers taken over by this process
    #: (shared-cache backend only).
    reclaimed: int = 0
    #: Corrupt or torn cache entries moved aside on read and
    #: re-executed (counted as misses, never trusted).
    quarantined: int = 0
    #: Cells completed by a cooperating peer worker while this process
    #: was draining the same grid (shared-cache backend only).
    peer_served: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of cells served from the cache (0.0 on empty runs)."""
        return self.cache_hits / self.total if self.total else 0.0

    def merged(self, other: "SweepStats") -> "SweepStats":
        return SweepStats(
            total=self.total + other.total,
            cache_hits=self.cache_hits + other.cache_hits,
            executed=self.executed + other.executed,
            retries=self.retries + other.retries,
            failed=self.failed + other.failed,
            reclaimed=self.reclaimed + other.reclaimed,
            quarantined=self.quarantined + other.quarantined,
            peer_served=self.peer_served + other.peer_served,
        )


class SweepDryRun(Exception):
    """Raised by :meth:`SweepRunner.run` in dry-run mode.

    Carries the cell ``plan`` (one record per cell: index, kind, cache
    key and whether the cache already holds it) instead of executing
    anything.  Control-flow by design: table generators call
    ``runner.run`` exactly once deep inside their formatting code, so
    an exception is the only clean way to stop them before execution
    while still surfacing the plan.
    """

    def __init__(self, plan: list[dict[str, Any]]):
        self.plan = plan
        cached = sum(1 for entry in plan if entry["cached"])
        super().__init__(
            f"dry run: {len(plan)} cell(s), {cached} cached, "
            f"{len(plan) - cached} pending"
        )


# ----------------------------------------------------------------------
# Cell executors (must stay top-level: workers import them by name)
# ----------------------------------------------------------------------

def _run_er_hr(spec: CellSpec, dataset: InteractionDataset) -> list[list[float]]:
    """Train one simulation, evaluate every requested cutoff.

    Returns ``[[er_percent, hr_percent], ...]`` — one pair per K, in
    ``spec.ks`` order — exactly the numbers :class:`Cell` formats.
    """
    cells = run_cells(spec.config, dataset=dataset, ks=spec.ks)
    return [[cell.er, cell.hr] for cell in cells]


def _run_pkl_ucr(spec: CellSpec, dataset: InteractionDataset) -> dict[str, list[float]]:
    """Table II cell: train a clean FRS, measure PKL / UCR per N.

    ``spec.payload`` is the tuple of popular-set sizes N.  The covered
    user set is computed with the vectorised CSR membership test
    (:meth:`~repro.datasets.base.InteractionDataset.covered_users`)
    instead of a per-user Python loop.
    """
    sim = FederatedSimulation(spec.config, dataset=dataset)
    sim.run()
    ranking = dataset.popularity_ranking()
    users = sim.user_embedding_matrix()
    pkl: list[float] = []
    ucr: list[float] = []
    for n in spec.payload:
        popular = ranking[: min(int(n), dataset.num_items)]
        covered = dataset.covered_users(popular)
        item_vecs = sim.model.item_embeddings[popular]
        user_vecs = users[covered] if len(covered) else users
        pkl.append(float(pairwise_kl(item_vecs, user_vecs)))
        ucr.append(float(user_coverage_ratio(dataset, popular)))
    return {"pkl": pkl, "ucr": ucr}


_CELL_KINDS = {
    "er_hr": _run_er_hr,
    "pkl_ucr": _run_pkl_ucr,
}


def register_cell_kind(
    kind: str, executor: Callable[[CellSpec, InteractionDataset], Any]
) -> None:
    """Register a custom cell executor under ``kind``.

    Pool workers are forked, so they see every kind registered before
    the sweep runs.  Values returned by the executor must be
    JSON-serialisable for the cache, like the built-in kinds.
    """
    _CELL_KINDS[kind] = executor


def execute_cell(spec: CellSpec, dataset: InteractionDataset) -> Any:
    """Run one cell spec against its dataset and return its raw values.

    Raw values are plain JSON-serialisable structures (lists / dicts of
    floats) so they round-trip bit-exactly through both pickling (the
    pool) and the JSON cache.
    """
    try:
        executor = _CELL_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {spec.kind!r}; expected one of "
            f"{sorted(_CELL_KINDS)}"
        ) from None
    return executor(spec, dataset)


def cells_from_values(values: Sequence[Sequence[float]]) -> tuple[Cell, ...]:
    """Reconstruct the formatted-cell tuple from an ``er_hr`` raw value."""
    return tuple(Cell(er=pair[0], hr=pair[1]) for pair in values)


# ----------------------------------------------------------------------
# Content-addressed cache keys
# ----------------------------------------------------------------------

def dataset_fingerprint(dataset: InteractionDataset) -> str:
    """Stable content hash of a dataset's interactions and split.

    Hashing the *content* (not the generating config) means any change
    to the dataset — different synthesis code, different raw files on
    disk, a different split — busts every cache key built on it.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{dataset.name}|{dataset.num_users}|{dataset.num_items}".encode()
    )
    # Deliberately reads train_pos directly rather than the memoised
    # train_csr() cache: a caller-materialised dataset mutated between
    # runs must change its fingerprint, and the CSR cache would pin the
    # pre-mutation interactions.
    lengths = np.fromiter(
        (len(items) for items in dataset.train_pos),
        dtype=np.int64,
        count=dataset.num_users,
    )
    digest.update(lengths.tobytes())
    if dataset.num_users and lengths.sum():
        indices = np.concatenate(dataset.train_pos)
        digest.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    digest.update(
        np.ascontiguousarray(dataset.test_items, dtype=np.int64).tobytes()
    )
    return digest.hexdigest()


def cell_cache_key(spec: CellSpec, dataset_fp: str) -> str:
    """Content address of one cell result.

    The key covers everything the result depends on: the code-version
    tag, the cell kind, the config's
    :func:`~repro.config.identity_record`, the evaluation cutoffs, the
    kind payload and the dataset fingerprint.  Any difference in any
    of them yields a different key.
    """
    ks = spec.ks if spec.ks is not None else (spec.config.train.top_k,)
    record = {
        "version": CACHE_VERSION,
        "kind": spec.kind,
        "ks": list(ks),
        "payload": list(spec.payload),
        "config": identity_record(spec.config),
        "dataset": dataset_fp,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------

class SweepRunner:
    """Executes a list of cell specs, from cache and/or a backend.

    The runner owns the *what*: cache keys, hit/miss accounting,
    dataset loading and fingerprinting.  The *how* is delegated to an
    :class:`~repro.experiments.backend.ExecutionBackend`:

    * By default a :class:`~repro.experiments.backend.LocalBackend` is
      built from ``workers`` / ``max_retries`` / ``retry_backoff`` /
      ``cell_timeout``, preserving the historical behaviour exactly —
      ``workers <= 1`` runs every cell inline (the sequential
      reference path), ``workers >= 2`` runs pending cells on a
      self-healing pool of forked workers, retried per cell.
    * Pass ``backend=SharedCacheBackend(...)`` (with ``cache_dir``
      set) to make this process one of N independent workers
      cooperatively draining the same grid through lease files in the
      cache directory.

    With ``cache_dir`` set, each finished cell is written to a
    content-addressed JSON entry (atomic, digest-stamped) the moment
    it completes, so an interrupted sweep resumes from what it
    finished, and a repeated sweep is served from cache entirely.
    Entries are verified on read: a torn or bit-flipped entry is
    quarantined (moved aside), counted in ``SweepStats.quarantined``
    and re-executed — never trusted, never fatal.  ``last_stats`` /
    ``total_stats`` expose the full accounting.

    ``dry_run=True`` stops :meth:`run` right after the cache pass: the
    per-cell plan (cached vs pending) is recorded in ``last_plan`` and
    raised as :class:`SweepDryRun` without executing anything.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache_dir: str | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        cell_timeout: float | None = None,
        backend: ExecutionBackend | None = None,
        dry_run: bool = False,
    ):
        if backend is None:
            backend = LocalBackend(
                workers=workers,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                cell_timeout=cell_timeout,
            )
        elif isinstance(backend, SharedCacheBackend) and cache_dir is None:
            raise ValueError("SharedCacheBackend requires cache_dir")
        self.backend = backend
        self.workers = workers
        self.cache_dir = cache_dir
        #: Extra attempts granted to each cell whose worker crashed or
        #: overran ``cell_timeout``.
        self.max_retries = max_retries
        #: Base of the exponential backoff before a cell's retry.
        self.retry_backoff = retry_backoff
        #: Longest one pooled cell may run before its worker is
        #: presumed hung, killed and the cell retried; ``None`` waits
        #: indefinitely.
        self.cell_timeout = cell_timeout
        self.dry_run = dry_run
        self.last_stats = SweepStats()
        self.total_stats = SweepStats()
        #: Cell plan recorded by the latest dry run (also carried on
        #: the raised :class:`SweepDryRun`).
        self.last_plan: list[dict[str, Any]] = []
        # Datasets this runner generated (and their fingerprints),
        # memoised by their frozen DatasetConfig: a multi-table sweep
        # through one runner generates and fingerprints each shared
        # dataset once, not once per table.
        self._loaded: dict[DatasetConfig, InteractionDataset] = {}
        self._fingerprints: dict[DatasetConfig, str] = {}
        # Corrupt entries moved aside during the current run().
        self._quarantined_this_run = 0

    # -- cache helpers -------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_cached(self, key: str) -> Any | None:
        entry, status = read_sweep_entry(self._entry_path(key))
        if status == "quarantined":
            self._quarantined_this_run += 1
        if entry is None or entry.get("key") != key:
            return None
        return entry["values"]

    def _store(self, key: str | None, spec: CellSpec, values: Any) -> None:
        if key is None:
            return
        save_sweep_entry(
            self._entry_path(key), key=key, kind=spec.kind, values=values
        )

    # -- execution -----------------------------------------------------

    def run(
        self,
        cells: Sequence[CellSpec],
        datasets: Mapping[str, DatasetConfig | InteractionDataset],
    ) -> list[Any]:
        """Execute (or recall) every cell; results align with ``cells``.

        ``datasets`` maps each ``dataset_key`` to either a
        :class:`~repro.config.DatasetConfig` (generated exactly once,
        here) or an already-materialised
        :class:`~repro.datasets.base.InteractionDataset`.
        """
        cells = list(cells)
        loaded: dict[str, InteractionDataset] = {}
        for key, value in datasets.items():
            if isinstance(value, InteractionDataset):
                loaded[key] = value
            else:
                if value not in self._loaded:
                    self._loaded[value] = load_dataset(value)
                loaded[key] = self._loaded[value]
        for spec in cells:
            if spec.dataset_key not in loaded:
                raise KeyError(
                    f"cell references unknown dataset key {spec.dataset_key!r}"
                )

        fingerprints: dict[str, str] = {}
        if self.cache_dir is not None:
            for key, value in datasets.items():
                if isinstance(value, DatasetConfig):
                    if value not in self._fingerprints:
                        self._fingerprints[value] = dataset_fingerprint(
                            loaded[key]
                        )
                    fingerprints[key] = self._fingerprints[value]
                else:
                    # Caller-materialised datasets are hashed per run —
                    # the runner cannot know they were left unmutated.
                    fingerprints[key] = dataset_fingerprint(value)

        self._quarantined_this_run = 0
        results: list[Any] = [None] * len(cells)
        pending: list[tuple[int, str | None]] = []
        hits = 0
        for index, spec in enumerate(cells):
            key = None
            if self.cache_dir is not None:
                key = cell_cache_key(spec, fingerprints[spec.dataset_key])
                cached = self._load_cached(key)
                if cached is not None:
                    results[index] = cached
                    hits += 1
                    continue
            pending.append((index, key))

        if self.dry_run:
            pending_indices = {index for index, _ in pending}
            self.last_plan = [
                {
                    "index": index,
                    "kind": spec.kind,
                    "dataset_key": spec.dataset_key,
                    "key": (
                        cell_cache_key(spec, fingerprints[spec.dataset_key])
                        if self.cache_dir is not None
                        else None
                    ),
                    "cached": index not in pending_indices,
                }
                for index, spec in enumerate(cells)
            ]
            raise SweepDryRun(self.last_plan)

        report = BackendReport()
        if pending:
            try:
                report = self.backend.run_pending(
                    cells=cells,
                    loaded=loaded,
                    pending=pending,
                    results=results,
                    store=self._store,
                    load_cached=(
                        self._load_cached
                        if self.cache_dir is not None
                        else lambda key: None
                    ),
                    entry_path=(
                        self._entry_path if self.cache_dir is not None else None
                    ),
                )
            except SweepExecutionError as exc:
                self._record_stats(
                    len(cells), hits, exc.report, failed=len(exc.failures)
                )
                raise
        self._record_stats(len(cells), hits, report)
        return results

    def _record_stats(
        self, total: int, hits: int, report: BackendReport, *, failed: int = 0
    ) -> None:
        self.last_stats = SweepStats(
            total=total,
            cache_hits=hits,
            executed=report.executed,
            retries=report.retries,
            failed=failed,
            reclaimed=report.reclaimed,
            quarantined=self._quarantined_this_run,
            peer_served=report.peer_served,
        )
        self.total_stats = self.total_stats.merged(self.last_stats)
