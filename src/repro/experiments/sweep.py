"""Parallel sweep orchestrator: one drain path with caching and leases.

The paper's evaluation is a grid of dozens of *independent* cells
(attacks x models x datasets, defenses x models x attacks, ...).  With
the intra-round engine fully vectorised, wall-clock for regenerating
the tables is dominated by the outer loop over cells — which this
module parallelises one layer up:

* table/figure generators declare their cells as data — a
  :class:`CellSpec` holding one :class:`~repro.config.ExperimentConfig`,
  the key of a shared dataset, the evaluation cutoffs and a cell
  *kind*;
* a :class:`SweepRunner` serves what the cache holds and drains the
  rest through one cell handler, run inline (``workers <= 1``) or on a
  :class:`~repro.workers.Supervisor` of forked workers that retries a
  crashed or hung cell;
* a content-addressed on-disk cache (``cache_dir``) keyed by a stable
  hash of the experiment config, the dataset *content* fingerprint,
  the evaluation cutoffs and a code-version tag lets re-runs skip
  completed cells and interrupted sweeps resume — cache entries are
  written through :mod:`repro.persistence` (atomically, with a sha256
  digest verified on every read) as each cell finishes;
* with a cache, every cell runs under a lease file next to its entry
  (:mod:`repro.experiments.backend`), so any number of runs pointed at
  one cache directory drain one grid together, and a run that dies
  mid-cell has its cell reclaimed by a peer once the lease goes stale.

Per-cell determinism already holds (every stream is seeded per cell),
so parallel execution order cannot leak into results: a cell's
value depends only on its spec and its dataset, never on which worker
ran it or when.  The parity suite in ``tests/test_sweep.py`` asserts
byte-identical cells between the pooled and sequential paths, and
``tests/test_distributed_backend.py`` extends the same contract to
several runs sharing one cache directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import socket
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.config import DatasetConfig, ExperimentConfig, identity_record
from repro.datasets.base import InteractionDataset
from repro.datasets.loaders import load_dataset
from repro.experiments.backend import (
    CellFailure,
    SweepExecutionError,
    hold_lease,
    lease_path_for,
    read_lease,
    release_lease,
)
from repro.experiments.runner import Cell, run_cells
from repro.federated.simulation import FederatedSimulation
from repro.metrics.divergence import pairwise_kl, user_coverage_ratio
from repro.persistence import read_sweep_entry, save_sweep_entry
from repro.workers import Failure, Supervisor

__all__ = [
    "CACHE_VERSION",
    "CellSpec",
    "CellFailure",
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
    silent: cells run again because their last executor died
    (``retries``), corrupt cache entries moved aside and re-executed
    (``quarantined``), cells a peer run finished for us
    (``peer_served``), and cells that stayed unfinished after every
    recovery path (``failed``).
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Cell executions run again because the last one died: a pool
    #: worker that crashed or overran ``cell_timeout``, or a peer run
    #: whose lease went stale.
    retries: int = 0
    #: Cells that still had no result when every recovery path ran out
    #: (also enumerated on the raised :class:`SweepExecutionError`).
    failed: int = 0
    #: Corrupt or torn cache entries moved aside on read and
    #: re-executed (counted as misses, never trusted).
    quarantined: int = 0
    #: Cells completed by a peer run on the same cache directory while
    #: this run was draining the grid.
    peer_served: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of cells served from the cache (0.0 on empty runs)."""
        return self.cache_hits / self.total if self.total else 0.0

    def merged(self, other: "SweepStats") -> "SweepStats":
        return SweepStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
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

#: First wait before a pass over cells live peers hold, and its cap; the
#: wait doubles after every pass that makes no progress.
_FIRST_WAIT_S = 0.05
_MAX_WAIT_S = 2.0


def _waits(owner: str) -> Iterator[float]:
    """Backoff before each pass over busy cells, jittered per owner.

    The multiplicative jitter in [0.5, 1.5) comes from a generator
    seeded by the owner string, so contending runs desynchronise
    instead of stampeding the cache directory.
    """
    jitter = random.Random(owner)
    wait = _FIRST_WAIT_S
    while True:
        yield wait * (0.5 + jitter.random())
        wait = min(2 * wait, _MAX_WAIT_S)


class SweepRunner:
    """Executes a list of cell specs, from cache and through one drain.

    The runner serves what the cache holds and drains the rest through
    one cell handler, :meth:`_handle`:

    * ``workers <= 1`` (or a single pending cell) runs the handler
      inline, the sequential reference path.  ``workers >= 2`` runs it
      as the ``handle`` of a :class:`~repro.workers.Supervisor` of
      forked workers, which inherit the loaded datasets with the fork.
      A cell whose worker died, or that ran longer than
      ``cell_timeout`` seconds (its worker is then killed), runs again
      on a respawned worker after ``retry_backoff * 2**(k-1)`` seconds,
      up to ``max_retries`` extra attempts.
    * With ``cache_dir`` set, the handler runs each cell under a lease
      next to its entry: claim, heartbeat every ``lease_ttl / 4``,
      write the entry, release.  The owner is this run of this runner,
      so a retry takes over its own lease at once.  Runs pointed at one
      cache directory therefore drain one grid together: a cell a live
      peer holds comes back busy, goes into the next pass after a
      jittered exponential backoff, and is served from the peer's entry
      once it lands (``peer_served``).  A peer's lease not refreshed
      for ``lease_ttl`` seconds belongs to a dead run and is reclaimed
      (a retry).  Waiting on live peers gives up after ``cell_timeout``
      seconds without progress.

    Each finished cell is written to a content-addressed JSON entry
    (atomic, digest-stamped) the moment it completes, so an
    interrupted sweep resumes from what it finished, and a repeated
    sweep is served from cache entirely.  Entries are verified on
    read: a torn or bit-flipped entry is quarantined (moved aside),
    counted in ``SweepStats.quarantined`` and re-executed — never
    trusted, never fatal.  Cells that stay unfinished raise a
    structured :class:`SweepExecutionError`; ``last_stats`` /
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
        lease_ttl: float = 30.0,
        dry_run: bool = False,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if cell_timeout is not None and not 0 < cell_timeout < math.inf:
            raise ValueError(f"cell_timeout must be finite and > 0, got {cell_timeout!r}")
        if not 0 < lease_ttl < math.inf:
            raise ValueError(f"lease_ttl must be finite and > 0, got {lease_ttl!r}")
        self.workers = workers
        self.cache_dir = cache_dir
        #: Extra attempts granted to each cell whose worker crashed or
        #: overran ``cell_timeout``.
        self.max_retries = max_retries
        #: Base of the exponential backoff before a cell's retry.
        self.retry_backoff = retry_backoff
        #: Longest one pooled cell may run before its worker is
        #: presumed hung, killed and the cell retried, and longest the
        #: drain waits on live peers without progress; ``None`` waits
        #: indefinitely.
        self.cell_timeout = cell_timeout
        #: Seconds without a heartbeat after which a peer's lease is
        #: taken to belong to a dead run.
        self.lease_ttl = lease_ttl
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

    # -- cache helpers -------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _read_entry(self, key: str) -> tuple[Any | None, int]:
        """The entry's verified values or ``None``, and 1 if quarantined."""
        entry, status = read_sweep_entry(self._entry_path(key))
        quarantined = int(status == "quarantined")
        if entry is None or entry.get("key") != key:
            return None, quarantined
        return entry["values"], quarantined

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

        results: list[Any] = [None] * len(cells)
        pending: list[tuple[int, str | None]] = []
        hits = quarantined = 0
        for index, spec in enumerate(cells):
            key = None
            if self.cache_dir is not None:
                key = cell_cache_key(spec, fingerprints[spec.dataset_key])
                cached, found = self._read_entry(key)
                quarantined += found
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

        drained, failures = SweepStats(), []
        if pending:
            if self.cache_dir is not None:
                # Leases sit next to the entries, so the directory must
                # exist before the first claim.
                os.makedirs(self.cache_dir, exist_ok=True)
            drained, failures = self._drain(cells, loaded, pending, results)
        self.last_stats = replace(
            drained,
            total=len(cells),
            cache_hits=hits,
            failed=len(failures),
            quarantined=quarantined + drained.quarantined,
        )
        self.total_stats = self.total_stats.merged(self.last_stats)
        if failures:
            raise SweepExecutionError(sorted(failures, key=lambda f: f.index))
        return results

    def _handle(self, owner, cells, loaded, task) -> tuple[str, Any, int, int]:
        """Run one pending cell; ``(status, values, quarantined, reclaimed)``.

        The same handler runs inline and in a pool worker, so whatever it
        counts travels back in its reply.  ``status`` is ``"executed"``,
        ``"peer"`` (a peer's entry landed first) or ``"busy"`` (a live
        peer holds the lease).  ``execute_cell`` and the entry I/O are
        looked up in this module when the handler runs, so a hook
        installed on the module sees every cell.
        """
        index, key = task
        spec = cells[index]
        if key is None:
            return "executed", execute_cell(spec, loaded[spec.dataset_key]), 0, 0
        values, quarantined = self._read_entry(key)
        if values is not None:
            return "peer", values, quarantined, 0
        lease = lease_path_for(self._entry_path(key))
        with hold_lease(lease, owner, self.lease_ttl) as how:
            if how is None:
                return "busy", None, quarantined, 0
            # The holder may have written the entry and released the
            # lease between the read above and the claim.
            values, found = self._read_entry(key)
            quarantined += found
            if values is not None:
                return "peer", values, quarantined, 0
            values = execute_cell(spec, loaded[spec.dataset_key])
            save_sweep_entry(
                self._entry_path(key), key=key, kind=spec.kind, values=values
            )
        return "executed", values, quarantined, int(how == "reclaimed")

    def _drain(
        self, cells, loaded, pending, results
    ) -> tuple[SweepStats, list[CellFailure]]:
        """Run every pending cell to a result, a failure, or a timeout.

        Each pass hands the cells still pending to the handler, inline
        or on the pool; the cells that came back busy make the next
        pass.  Fills ``results`` in place and returns the drain's
        counts and its failures.
        """
        owner = f"{socket.gethostname()}-{os.getpid()}-{os.urandom(4).hex()}"

        def handle(task):
            return self._handle(owner, cells, loaded, task)

        pool = None
        if self.workers >= 2 and len(pending) >= 2:
            pool = Supervisor(
                min(self.workers, len(pending)),
                handle,
                max_attempts=self.max_retries + 1,
                backoff=self.retry_backoff,
                deadline=self.cell_timeout,
            )
        counts = {"executed": 0, "peer": 0, "quarantined": 0, "reclaimed": 0}
        failures: list[CellFailure] = []
        waits, idle_since = _waits(owner), time.monotonic()
        try:
            while pending:
                if pool is None:
                    outcomes = enumerate(map(handle, pending))
                else:
                    outcomes = pool.run([(None, task) for task in pending])
                busy = []
                for position, reply in outcomes:
                    index, key = pending[position]
                    if isinstance(reply, Failure):
                        failures.append(
                            CellFailure(
                                index, cells[index].kind, reply.attempts, reply.error
                            )
                        )
                        if key is not None:
                            lease = lease_path_for(self._entry_path(key))
                            if (read_lease(lease) or {}).get("owner") == owner:
                                release_lease(lease)
                        continue
                    status, values, quarantined, reclaimed = reply
                    counts["quarantined"] += quarantined
                    counts["reclaimed"] += reclaimed
                    if status == "busy":
                        busy.append((index, key))
                        continue
                    results[index] = values
                    counts[status] += 1
                now = time.monotonic()
                if len(busy) < len(pending):
                    waits, idle_since = _waits(owner), now
                elif self.cell_timeout is not None and now - idle_since > self.cell_timeout:
                    failures += [
                        CellFailure(
                            index,
                            cells[index].kind,
                            1,
                            f"no progress within {self.cell_timeout}s; cell "
                            "leased by a live peer that never completed",
                        )
                        for index, _ in busy
                    ]
                    break
                pending = busy
                if pending:
                    time.sleep(next(waits))
        finally:
            if pool is not None:
                pool.close()
        stats = SweepStats(
            executed=counts["executed"],
            retries=counts["reclaimed"] + (pool.retries if pool else 0),
            quarantined=counts["quarantined"],
            peer_served=counts["peer"],
        )
        return stats, failures
