"""One supervisor for forked worker processes.

The round executor
(:class:`~repro.federated.batch_engine.ProcessRoundExecutor`, tasks
pinned to the worker owning the shards) and the sweep pool
(:class:`~repro.experiments.sweep.SweepRunner` with ``workers >= 2``,
cells to any idle worker) both run on :class:`Supervisor`.  Workers
are forked, so they inherit the parent's memory (datasets, models,
shared mappings) and ``handle`` may be a closure; only tasks and
replies cross the one duplex pipe each worker owns::

    reply = handle(task)                # in the child, one task at a time

Failures are per task.  An exception in ``handle`` comes back as a
failure reply and the worker lives on; a worker that dies (EOF or a
broken pipe) or overruns ``deadline`` is reaped (killed first if it
hangs) and re-forked on its next dispatch, and only its own task goes
again.  A task gets at most ``max_attempts`` dispatches, the ``k``-th
retry after ``backoff * 2**(k-1)`` seconds; then it is a
:class:`Failure`.  A task never runs twice at the same time: its retry
is dispatched only once the previous attempt replied or its worker was
reaped, which is why a sweep cell's retry may take over its own lease
at once.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.util
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Failure", "Supervisor"]


@dataclass(frozen=True)
class Failure:
    """A task that produced no reply within its attempt bound."""

    error: str  # what went wrong on the last attempt
    attempts: int


def _reap(conns: list, processes: list, index: int, *, kill: bool = False) -> str:
    """Join worker ``index`` (killed if asked or if it will not exit)."""
    process = processes[index]
    if kill:
        process.kill()
    process.join(timeout=5)
    if process.is_alive():
        process.kill()
        process.join()
    conns[index].close()
    conns[index] = processes[index] = None
    return f"worker {index} died (exit code {process.exitcode})"


def _stop(conns: list, processes: list) -> None:
    """Ask every worker to exit, then reap it."""
    for conn in filter(None, conns):
        try:
            conn.send(None)
        except OSError:
            pass
    for index, process in enumerate(processes):
        if process is not None:
            _reap(conns, processes, index)


class Supervisor:
    """``num_workers`` forked workers with per-task retry and deadline.

    The workers are forked here, so they see what the parent holds now.
    They are not daemonic, so a worker may supervise workers of its own
    (a sweep cell running a multi-process simulation); a supervisor
    never closed is stopped when collected, or at the latest before
    ``multiprocessing`` joins its children at interpreter exit.
    """

    def __init__(
        self,
        num_workers: int,
        handle: Callable[[Any], Any],
        *,
        max_attempts: int = 3,
        backoff: float = 0.0,
        deadline: float | None = None,
    ):
        if num_workers < 1 or max_attempts < 1:
            raise ValueError("num_workers and max_attempts must be >= 1")
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError(f"deadline must be finite and > 0, got {deadline!r}")
        self._handle = handle
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.deadline = deadline
        #: Workers re-forked after dying or being killed at a deadline.
        self.respawns = 0
        #: Dispatches of a task whose previous attempt failed.
        self.retries = 0
        self._ctx = multiprocessing.get_context("fork")
        self._conns: list[Any] = [None] * num_workers
        #: One ``multiprocessing.Process`` per worker; ``None`` once
        #: reaped, until the slot's next dispatch re-forks it.
        self.processes: list[Any] = [None] * num_workers
        self._busy: dict[int, tuple[int, float]] = {}  # worker -> (task, sent)
        self._stop = multiprocessing.util.Finalize(
            self, _stop, args=(self._conns, self.processes), exitpriority=10
        )
        for index in range(num_workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        self._conns[index] = parent_end
        process = self._ctx.Process(target=self._serve, args=(child_end,))
        process.start()
        child_end.close()
        self.processes[index] = process

    def _serve(self, conn) -> None:
        """Worker main loop; runs in the forked child."""
        # The parent ends of every pipe, this worker's own included,
        # came along with the fork: dropping them lets a worker see EOF
        # once the parent is gone.
        for other in filter(None, self._conns):
            other.close()
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            try:
                reply = (True, self._handle(task))
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                reply = (False, f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except OSError:  # the parent is gone
                return

    def _idle_worker(self, pinned: int | None) -> int | None:
        candidates = range(len(self.processes)) if pinned is None else (pinned,)
        return next((w for w in candidates if w not in self._busy), None)

    def run(
        self, tasks: Sequence[tuple[int | None, Any]]
    ) -> Iterator[tuple[int, Any]]:
        """Run ``(worker, task)`` pairs; yield ``(position, reply)``.

        ``worker`` pins a task to one worker index; ``None`` gives it
        to any idle worker.  Outcomes come in completion order, a
        :class:`Failure` in place of the reply of a task whose attempts
        ran out.
        """
        pending = list(range(len(tasks)))
        attempts = [0] * len(tasks)
        ready_at = [0.0] * len(tasks)
        busy = self._busy
        done: list[tuple[int, Any]] = []

        def fail(position: int, error: str) -> None:
            if attempts[position] < self.max_attempts:
                self.retries += 1
                delay = self.backoff * 2 ** (attempts[position] - 1)
                ready_at[position] = time.monotonic() + delay
                pending.append(position)
            else:
                done.append((position, Failure(error, attempts[position])))

        try:
            while pending or busy:
                now = time.monotonic()
                for position in [p for p in pending if ready_at[p] <= now]:
                    worker = self._idle_worker(tasks[position][0])
                    if worker is None:
                        continue
                    pending.remove(position)
                    attempts[position] += 1
                    if self.processes[worker] is None:
                        self.respawns += 1
                        self._spawn(worker)
                    try:
                        self._conns[worker].send(tasks[position][1])
                    except OSError:  # died while idle
                        error = _reap(self._conns, self.processes, worker)
                        fail(position, error)
                    else:
                        busy[worker] = (position, now)
                # Tasks waiting on a busy worker wake with its reply.
                wakeups = [
                    ready_at[p]
                    for p in pending
                    if self._idle_worker(tasks[p][0]) is not None
                ]
                if self.deadline is not None:
                    wakeups += [sent + self.deadline for _, sent in busy.values()]
                timeout = max(0.0, min(wakeups) - now) if wakeups else None
                ready = wait([self._conns[w] for w in busy], timeout)
                for worker in [w for w in busy if self._conns[w] in ready]:
                    position, _ = busy.pop(worker)
                    try:
                        ok, reply = self._conns[worker].recv()
                    except (EOFError, OSError):
                        error = _reap(self._conns, self.processes, worker)
                        fail(position, error)
                        continue
                    if ok:
                        done.append((position, reply))
                    else:
                        fail(position, reply)
                now = time.monotonic()
                for worker, (position, sent) in list(busy.items()):
                    if self.deadline is not None and now - sent >= self.deadline:
                        del busy[worker]
                        _reap(self._conns, self.processes, worker, kill=True)
                        fail(
                            position,
                            f"no reply within {self.deadline}s; pool presumed "
                            f"hung, worker {worker} killed",
                        )
                yield from done
                done.clear()
        finally:  # abandoned mid-way: nobody will collect these replies
            for worker in list(busy):
                del busy[worker]
                _reap(self._conns, self.processes, worker, kill=True)

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        self._stop()
