"""Cell leases and failures of a sweep's drain.

:meth:`~repro.experiments.sweep.SweepRunner.run` executes every cell
that has a cache key under a lease file next to its entry, so any
number of runs pointed at one cache directory (terminals, hosts over a
shared filesystem) partition the grid among themselves with no
coordinator.  This module holds the lease primitives and the failure
types of that drain.

Lease protocol state machine (per cell)::

    UNCLAIMED --O_CREAT|O_EXCL succeeds--> CLAIMED(owner A)
    CLAIMED   --heartbeat (mtime refresh every ttl / 4)--> CLAIMED
    CLAIMED   --entry written, lease unlinked--> COMPLETE
    CLAIMED   --A's retry after its worker died--> CLAIMED(owner A)
    CLAIMED   --owner dies; ttl elapses--> STALE
    STALE     --atomic os.replace takeover + token read-back--> CLAIMED(owner B)

The owner is one run of one runner, not a worker process.  Its own
lease it takes over at once (the supervisor never runs one task twice
at the same time); another owner's lease only once it is stale.  The
token read-back after a takeover confirms ownership: when two peers
race to reclaim the same stale lease, the file holds exactly one
token, so at most one reclaimer *confirms*.  Cell execution is
idempotent and deterministic, so a rare race that leaves two
executors on one cell is harmless: both write byte-identical entries
and the last atomic ``os.replace`` wins.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

__all__ = [
    "CellFailure",
    "SweepExecutionError",
    "acquire_lease",
    "hold_lease",
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
    """One cell a sweep could not complete."""

    index: int  # position in the submitted cell list
    kind: str
    attempts: int
    error: str  # last failure observed for this cell


class SweepExecutionError(RuntimeError):
    """Raised when cells remain unfinished after every recovery path.

    Completed cells are already in the cache (entries are written the
    moment each cell finishes), so rerunning the same sweep resumes
    from them; ``failures`` lists exactly what is missing and why.
    """

    def __init__(self, failures: Sequence[CellFailure]):
        self.failures = tuple(failures)
        detail = "; ".join(
            f"cell {f.index} ({f.kind}) after {f.attempts} attempts: {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed permanently: {detail}"
        )


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
    Stops by itself if the lease vanishes — e.g. a peer took it over
    while this run stalled past the ttl, then finished and released it
    — because refreshing a recreated file would fence out a legitimate
    new owner.
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


def acquire_lease(path: str, owner: str, ttl: float) -> str | None:
    """Own a cell's lease for ``owner``; how, or ``None`` when busy.

    Returns ``"claimed"`` for a fresh ``O_EXCL`` claim, ``"retaken"``
    for ``owner``'s own lease (its previous attempt died), and
    ``"reclaimed"`` for another owner's lease older than ``ttl``.  A
    live peer's lease, or one that vanished meanwhile, is ``None``.
    """
    token = f"{owner}#{os.getpid()}#{os.urandom(4).hex()}"
    record = {"owner": owner, "pid": os.getpid(), "token": token}
    if try_claim_lease(path, record):
        return "claimed"
    held = read_lease(path)
    age = lease_age(path)
    ours = held is not None and held.get("owner") == owner
    if age is None or (not ours and age <= ttl):
        return None
    if try_reclaim_lease(path, record, token):
        return "retaken" if ours else "reclaimed"
    return None


@contextlib.contextmanager
def hold_lease(path: str, owner: str, ttl: float) -> Iterator[str | None]:
    """Hold a cell's lease for the ``with`` body, heartbeating it.

    Yields how the lease was acquired (see :func:`acquire_lease`), or
    ``None``, holding nothing, when a live peer holds it.  The
    heartbeat refreshes the lease every ``ttl / 4`` seconds, and the
    lease is released however the body exits.
    """
    how = acquire_lease(path, owner, ttl)
    if how is None:
        yield None
        return
    try:
        with _Heartbeat(path, ttl / 4):
            yield how
    finally:
        release_lease(path)
