"""Pluggable execution backends for the sweep orchestrator.

:class:`~repro.experiments.sweep.SweepRunner` decides *what* runs (cell
specs, cache keys, stats); a backend decides *where and how* the
pending cells execute:

* :class:`LocalBackend` — the single-machine reference: cells run
  inline in the calling process (``workers <= 1``) or on a
  self-healing pool of forked workers (a crashed or hung worker is
  respawned and its cell retried with exponential backoff).  This is
  the path every table generator has always used.
* :class:`SharedCacheBackend` — N *independent* worker processes (same
  host, or many hosts over a shared filesystem) cooperatively drain
  one cell grid using **only the content-addressed cache directory**
  for coordination.  No scheduler, no sockets: a worker claims a cell
  by atomically creating ``<entry>.lease`` (``O_CREAT | O_EXCL``),
  heartbeats the lease's mtime while executing, and releases it after
  the entry lands.  A worker that dies mid-cell stops heartbeating;
  once the lease goes stale (``lease_ttl`` without a refresh) any
  peer reclaims it through an atomic token-confirmed takeover and
  re-runs the cell.  Cell execution is idempotent and deterministic,
  so the rare reclaim race that leaves two workers executing the same
  cell is harmless: both produce byte-identical entries and the last
  atomic ``os.replace`` wins.

Every degradation path is counted, never silent: reclaimed leases and
peer-served cells flow back through :class:`BackendReport` into
:class:`~repro.experiments.sweep.SweepStats`.

Lease protocol state machine (per cell)::

    UNCLAIMED --O_CREAT|O_EXCL succeeds--> CLAIMED(owner A)
    CLAIMED   --heartbeat (mtime refresh every interval)--> CLAIMED
    CLAIMED   --entry written, lease unlinked--> COMPLETE
    CLAIMED   --owner dies; ttl elapses--> STALE
    STALE     --atomic os.replace takeover + token read-back--> CLAIMED(owner B)

The token read-back after a takeover confirms ownership: when two
peers race to reclaim the same stale lease, the file holds exactly one
token, so at most one reclaimer *confirms*; a loser that confirmed
against an already-overwritten read executes the cell redundantly —
covered by idempotency, and bounded by the backoff.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.workers import Failure, Supervisor

__all__ = [
    "BackendReport",
    "CellFailure",
    "ExecutionBackend",
    "LocalBackend",
    "SharedCacheBackend",
    "SweepExecutionError",
    "lease_path_for",
    "try_claim_lease",
    "try_reclaim_lease",
    "read_lease",
    "lease_age",
    "refresh_lease",
    "release_lease",
]

#: Filename suffix of a cell's lease, next to its cache entry.
LEASE_SUFFIX = ".lease"


@dataclass(frozen=True)
class CellFailure:
    """One cell a backend could not complete."""

    index: int  # position in the submitted cell list
    kind: str
    attempts: int
    error: str  # last failure observed for this cell


@dataclass
class BackendReport:
    """Execution accounting one backend run hands back to the runner."""

    #: Cells this process executed itself.
    executed: int = 0
    #: Cells completed by a peer worker (their cache entry appeared).
    peer_served: int = 0
    #: Cell executions rerun after a crash / timeout (local pool).
    retries: int = 0
    #: Stale leases of dead workers taken over by this process.
    reclaimed: int = 0


class SweepExecutionError(RuntimeError):
    """Raised when cells remain unfinished after every recovery path.

    Completed cells are already in the cache (entries are written the
    moment each cell finishes), so rerunning the same sweep resumes
    from them; ``failures`` lists exactly what is missing and why, and
    ``report`` carries the accounting up to the failure.
    """

    def __init__(
        self,
        failures: Sequence[CellFailure],
        report: BackendReport | None = None,
    ):
        self.failures = tuple(failures)
        self.report = report if report is not None else BackendReport()
        detail = "; ".join(
            f"cell {f.index} ({f.kind}) after {f.attempts} attempts: {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed permanently: {detail}"
        )


class ExecutionBackend:
    """Strategy interface: execute the cells the cache could not serve.

    ``pending`` is a list of ``(index, key)`` pairs (``key`` is ``None``
    without a cache); the backend fills ``results[index]`` for each,
    persisting finished cells through ``store`` the moment they land.
    ``load_cached`` re-checks the cache (used by coordinating backends
    to pick up peers' results) and ``entry_path`` maps a key to its
    cache-entry path (for lease placement).  Raises
    :class:`SweepExecutionError` when cells remain unfinished.
    """

    def run_pending(
        self,
        *,
        cells: Sequence[Any],
        loaded: dict[str, Any],
        pending: list[tuple[int, str | None]],
        results: list[Any],
        store: Callable[[str | None, Any, Any], None],
        load_cached: Callable[[str], Any | None],
        entry_path: Callable[[str], str] | None = None,
    ) -> BackendReport:
        raise NotImplementedError


# ----------------------------------------------------------------------
# LocalBackend: inline or a self-healing worker pool (the reference)
# ----------------------------------------------------------------------

class LocalBackend(ExecutionBackend):
    """Single-machine execution: inline, or a self-healing worker pool.

    ``workers <= 1`` (or a single pending cell) runs everything inline
    in the calling process — the sequential reference path.  Otherwise
    pending cells run on a :class:`~repro.workers.Supervisor` of forked
    workers, each taking the next cell when idle; the workers inherit
    the loaded datasets with the fork, so nothing is shipped to them.

    The pooled path is **self-healing per cell**: a cell whose worker
    died, or that ran longer than ``cell_timeout`` seconds (its worker
    is then killed), is run again on a respawned worker after an
    exponential backoff (``retry_backoff * 2**(retry - 1)`` seconds),
    up to ``max_retries`` extra attempts; other cells carry on
    meanwhile.  Cells that still have no result are reported in a
    structured :class:`SweepExecutionError`.  Determinism makes
    retrying free of semantics: a cell's value never depends on which
    worker (or which attempt) computed it.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        cell_timeout: float | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.cell_timeout = cell_timeout

    def run_pending(
        self,
        *,
        cells,
        loaded,
        pending,
        results,
        store,
        load_cached,
        entry_path=None,
    ) -> BackendReport:
        from repro.experiments.sweep import execute_cell

        def run(index: int):
            spec = cells[index]
            return execute_cell(spec, loaded[spec.dataset_key])

        if self.workers < 2 or len(pending) < 2:
            for index, key in pending:
                results[index] = run(index)
                store(key, cells[index], results[index])
            return BackendReport(executed=len(pending))
        pool = Supervisor(
            min(self.workers, len(pending)),
            run,
            max_attempts=self.max_retries + 1,
            backoff=self.retry_backoff,
            deadline=self.cell_timeout,
        )
        failures = []
        try:
            for task, values in pool.run([(None, index) for index, _ in pending]):
                index, key = pending[task]
                if isinstance(values, Failure):
                    failures.append(
                        CellFailure(
                            index, cells[index].kind, values.attempts, values.error
                        )
                    )
                    continue
                results[index] = values
                store(key, cells[index], values)
        finally:
            pool.close()
        report = BackendReport(executed=len(pending), retries=pool.retries)
        if failures:
            raise SweepExecutionError(sorted(failures, key=lambda f: f.index), report)
        return report


# ----------------------------------------------------------------------
# Lease primitives (shared filesystem, POSIX-atomic operations only)
# ----------------------------------------------------------------------

def lease_path_for(entry_path: str) -> str:
    """The lease filename guarding one cache entry."""
    return entry_path + LEASE_SUFFIX


def try_claim_lease(path: str, record: dict[str, Any]) -> bool:
    """Claim an unclaimed lease; True iff this caller created the file.

    ``O_CREAT | O_EXCL`` is atomic on POSIX filesystems (including NFS
    v3+), so exactly one of any number of racing claimants succeeds.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump(record, handle)
    return True


def try_reclaim_lease(path: str, record: dict[str, Any], token: str) -> bool:
    """Take over a stale lease; True iff this caller's token survived.

    The takeover is an atomic ``os.replace`` of a freshly written
    owner record, followed by a read-back: the lease file holds
    exactly one token at any instant, so among racing reclaimers at
    most one confirms per read window.  Callers must only invoke this
    on leases whose age exceeds the TTL.
    """
    tmp_path = f"{path}.{os.getpid()}.reclaim.tmp"
    try:
        with open(tmp_path, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    current = read_lease(path)
    return current is not None and current.get("token") == token


def read_lease(path: str) -> dict[str, Any] | None:
    """The lease's owner record, or ``None`` when missing/unreadable."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def lease_age(path: str, *, now: float | None = None) -> float | None:
    """Seconds since the lease's last heartbeat; ``None`` if absent."""
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return (time.time() if now is None else now) - mtime


def refresh_lease(path: str) -> bool:
    """Heartbeat: bump the lease's mtime; False when it vanished."""
    try:
        os.utime(path, None)
    except OSError:
        return False
    return True


def release_lease(path: str) -> None:
    """Drop a lease after its entry landed (idempotent)."""
    try:
        os.unlink(path)
    except OSError:
        pass


class _Heartbeat:
    """Background mtime refresher for a held lease.

    Runs in a daemon thread while the cell executes (the work is
    numpy-heavy and releases the GIL, so the timer fires on schedule).
    Stops by itself if the lease vanishes — e.g. a peer completed the
    cell and swept the lease — because refreshing a recreated file
    would fence out a legitimate new owner.
    """

    def __init__(self, path: str, interval: float):
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not refresh_lease(self._path):
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


# ----------------------------------------------------------------------
# SharedCacheBackend: multi-worker coordination over the cache dir
# ----------------------------------------------------------------------

class SharedCacheBackend(ExecutionBackend):
    """Drain a cell grid cooperatively with unrelated worker processes.

    Launch the *same sweep* from N independent processes (terminals,
    hosts, a job scheduler) pointed at one ``cache_dir``; each process
    uses this backend and they partition the grid dynamically via
    lease files, each executing cells one at a time in its own
    process.  There is no leader: the cache directory is the only
    shared state, so adding or losing workers at any point is safe.

    ``lease_ttl`` bounds how long a dead worker can pin a cell: pick
    it comfortably above the heartbeat interval (default ``ttl / 4``)
    and filesystem timestamp granularity, and below the cost of the
    cheapest cell you mind re-running.  On claim contention the drain
    loop backs off exponentially (capped at ``max_backoff``) with
    multiplicative jitter from a generator seeded by ``jitter_seed``
    (derived from ``owner`` by default), so workers desynchronise
    deterministically per owner instead of stampeding the directory.

    ``wait_timeout`` guards the pathological tail: if *nothing*
    progresses for that long (every remaining cell leased by workers
    that neither finish nor die), the drain gives up with a
    structured :class:`SweepExecutionError`.  ``None`` waits forever.
    """

    def __init__(
        self,
        *,
        owner: str | None = None,
        lease_ttl: float = 30.0,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.05,
        max_backoff: float = 2.0,
        jitter_seed: int | None = None,
        wait_timeout: float | None = None,
    ):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if max_backoff < poll_interval:
            raise ValueError("max_backoff must be >= poll_interval")
        if wait_timeout is not None and wait_timeout <= 0:
            raise ValueError("wait_timeout must be positive")
        self.owner = (
            owner
            if owner is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else lease_ttl / 4
        )
        self.poll_interval = poll_interval
        self.max_backoff = max_backoff
        if jitter_seed is None:
            import hashlib

            jitter_seed = int.from_bytes(
                hashlib.sha256(self.owner.encode()).digest()[:8], "little"
            )
        self._rng = np.random.default_rng(jitter_seed)
        self.wait_timeout = wait_timeout
        self._claims = 0

    # -- lease bookkeeping ---------------------------------------------

    def _owner_record(self, token: str) -> dict[str, Any]:
        return {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "token": token,
        }

    def _next_token(self) -> str:
        self._claims += 1
        return f"{self.owner}#{self._claims}"

    def _acquire(self, lease_path: str) -> tuple[str, bool] | None:
        """Try to own a cell's lease; ``(token, was_reclaimed)`` or None.

        Fresh claims go through ``O_CREAT | O_EXCL``; leases older
        than ``lease_ttl`` (their owner stopped heartbeating — dead,
        or wedged badly enough to count as dead) are taken over with
        the token-confirmed atomic replace.
        """
        token = self._next_token()
        record = self._owner_record(token)
        if try_claim_lease(lease_path, record):
            return token, False
        age = lease_age(lease_path)
        if age is None or age <= self.lease_ttl:
            return None  # vanished (retry next pass) or held live
        if try_reclaim_lease(lease_path, record, token):
            return token, True
        return None

    def _sweep_completed_lease(self, lease_path: str) -> None:
        """Clear the stale lease of a cell whose entry already landed.

        A worker killed *between* storing the entry and releasing the
        lease leaves a permanent orphan; once stale it is garbage (the
        entry is the source of truth) and unlinking it keeps the cache
        directory clean.  Fresh leases are left alone — they belong to
        a live redundant executor whose rewrite is byte-identical.
        """
        age = lease_age(lease_path)
        if age is not None and age > self.lease_ttl:
            release_lease(lease_path)

    # -- the drain loop ------------------------------------------------

    def run_pending(
        self,
        *,
        cells,
        loaded,
        pending,
        results,
        store,
        load_cached,
        entry_path=None,
    ) -> BackendReport:
        from repro.experiments.sweep import execute_cell

        if entry_path is None or any(key is None for _, key in pending):
            raise ValueError(
                "SharedCacheBackend coordinates through the cache directory; "
                "construct the SweepRunner with cache_dir="
            )
        if pending:
            # Leases live next to the entries; the cache directory must
            # exist before the first claim (entries themselves create it
            # lazily through the atomic-write helper).
            first_dir = os.path.dirname(
                os.path.abspath(entry_path(pending[0][1]))
            )
            os.makedirs(first_dir, exist_ok=True)
        report = BackendReport()
        remaining = list(pending)
        backoff = self.poll_interval
        idle_since: float | None = None
        while remaining:
            progressed = False
            next_remaining: list[tuple[int, str | None]] = []
            for index, key in remaining:
                lease_path = lease_path_for(entry_path(key))
                cached = load_cached(key)
                if cached is not None:
                    # A peer finished this cell (now or in a previous
                    # run); adopt its entry and sweep lease orphans.
                    results[index] = cached
                    report.peer_served += 1
                    self._sweep_completed_lease(lease_path)
                    progressed = True
                    continue
                acquired = self._acquire(lease_path)
                if acquired is None:
                    next_remaining.append((index, key))
                    continue
                _, was_reclaimed = acquired
                if was_reclaimed:
                    report.reclaimed += 1
                spec = cells[index]
                try:
                    with _Heartbeat(lease_path, self.heartbeat_interval):
                        values = execute_cell(spec, loaded[spec.dataset_key])
                    store(key, spec, values)
                finally:
                    # Entry before release: a crash in between leaves a
                    # stale lease next to a complete entry, swept by
                    # whichever peer reads the entry next.
                    release_lease(lease_path)
                results[index] = values
                report.executed += 1
                progressed = True
            remaining = next_remaining
            if not remaining:
                break
            if progressed:
                backoff = self.poll_interval
                idle_since = None
            else:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    self.wait_timeout is not None
                    and now - idle_since > self.wait_timeout
                ):
                    failures = [
                        CellFailure(
                            index=index,
                            kind=cells[index].kind,
                            attempts=1,
                            error=(
                                f"no progress within {self.wait_timeout}s; "
                                "cell leased by a live worker that never "
                                "completed"
                            ),
                        )
                        for index, _ in remaining
                    ]
                    raise SweepExecutionError(failures, report)
                # Multiplicative jitter in [0.5, 1.5) de-synchronises
                # contending workers; deterministic per owner seed.
                time.sleep(backoff * (0.5 + float(self._rng.random())))
                backoff = min(backoff * 2.0, self.max_backoff)
        return report
