"""The forked-worker supervisor: dispatch, death, deadlines, shutdown.

Workers are killed for real (SIGKILL, ``os._exit``) and hung for real
(``time.sleep``): these tests exercise the pipe EOF / broken-pipe and
kill-at-deadline paths that the round executor and the sweep pool
both stand on.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.workers import Failure, Supervisor


def _work(task):
    """Deterministic reply, plus the pid of the worker computing it."""
    kind, value = task
    if kind == "kill-once" and not os.path.exists(value):
        open(value, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "exit":
        os._exit(1)
    if kind == "hang":
        time.sleep(120)
    if kind == "raise":
        raise ValueError(f"bad task {value}")
    return {"pid": os.getpid(), "value": sum(range(100))}


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:  # not (or no longer) our child
        return not os.path.exists(f"/proc/{pid}")
    return False


@pytest.fixture
def supervisors():
    made: list[Supervisor] = []

    def make(*args, **kwargs) -> Supervisor:
        made.append(Supervisor(*args, **kwargs))
        return made[-1]

    yield make
    for supervisor in made:
        supervisor.close()


def test_pinned_tasks_reach_their_worker(supervisors):
    pool = supervisors(3, _work)
    pids = [process.pid for process in pool.processes]
    outcomes = dict(pool.run([(w, ("ok", w)) for w in (2, 0, 1, 2)]))
    assert [outcomes[p]["pid"] for p in range(4)] == [pids[w] for w in (2, 0, 1, 2)]


def test_sigkilled_worker_is_respawned_with_the_same_reply(supervisors, tmp_path):
    pool = supervisors(2, _work)
    first_pid = pool.processes[0].pid
    reference = dict(pool.run([(0, ("ok", 0))]))[0]
    marker = str(tmp_path / "killed")
    (_, reply), = pool.run([(0, ("kill-once", marker))])
    assert os.path.exists(marker), "the task never ran"
    assert pool.respawns == 1 and pool.retries == 1
    assert reply["pid"] != first_pid
    assert {**reply, "pid": 0} == {**reference, "pid": 0}
    assert _reaped(first_pid)


def test_task_past_its_deadline_is_killed_and_reported(supervisors):
    pool = supervisors(2, _work, max_attempts=2, deadline=0.5)
    started = time.perf_counter()
    outcomes = dict(pool.run([(None, ("hang", 0)), (None, ("ok", 1))]))
    assert time.perf_counter() - started < 10.0
    failure = outcomes[0]
    assert isinstance(failure, Failure)
    assert failure.attempts == 2
    assert "no reply within 0.5s" in failure.error
    assert "presumed hung" in failure.error
    assert outcomes[1]["value"] == sum(range(100))
    assert pool.respawns >= 1


@pytest.mark.parametrize("deadline", [float("nan"), float("inf"), 0.0, -1.0])
def test_deadline_must_be_finite_and_positive(deadline):
    # A NaN deadline used to be accepted: max(0.0, nan) is 0.0, so the
    # parent busy-polled its workers and never killed one.  Checked
    # before any worker is forked.
    with pytest.raises(ValueError, match="deadline"):
        Supervisor(1, _work, deadline=deadline)


def test_exception_in_handle_is_a_failure_reply(supervisors):
    pool = supervisors(1, _work, max_attempts=1)
    pid = pool.processes[0].pid
    (_, failure), = pool.run([(0, ("raise", 7))])
    assert failure == Failure("ValueError: bad task 7", 1)
    # The worker survived its task's exception and serves the next one.
    (_, reply), = pool.run([(0, ("ok", 0))])
    assert reply["pid"] == pid and pool.respawns == 0


def test_exhausted_attempts_report_the_task_failed(supervisors):
    pool = supervisors(2, _work, max_attempts=3)
    outcomes = dict(pool.run([(None, ("exit", 0)), (None, ("ok", 1))]))
    failure = outcomes[0]
    assert isinstance(failure, Failure)
    assert failure.attempts == 3
    assert "died (exit code 1)" in failure.error
    assert outcomes[1]["value"] == sum(range(100))
    assert pool.retries == 2


def test_backoff_delays_each_retry(supervisors):
    pool = supervisors(1, _work, max_attempts=3, backoff=0.2)
    started = time.perf_counter()
    (_, failure), = pool.run([(0, ("exit", 0))])
    # Retries after 0.2 s and 0.4 s.
    assert time.perf_counter() - started >= 0.6
    assert failure.attempts == 3


def test_abandoned_run_kills_its_busy_workers(supervisors):
    pool = supervisors(2, _work, max_attempts=1)
    hung = pool.processes[1].pid
    started = time.perf_counter()
    for _, outcome in pool.run([(0, ("raise", 0)), (1, ("hang", 0))]):
        assert isinstance(outcome, Failure)
        break  # a caller giving up, as the executor does on a failure
    assert time.perf_counter() - started < 10.0
    assert pool.processes[1] is None and _reaped(hung)
    # The next run is not handed the abandoned task's reply.
    reply = dict(pool.run([(1, ("ok", 1))]))[0]
    assert reply["pid"] == pool.processes[1].pid != hung


def _nested(task):
    with_child = Supervisor(1, _work)
    try:
        (_, reply), = with_child.run([(0, task)])
    finally:
        with_child.close()
    return reply["value"]


def test_a_worker_may_supervise_workers(supervisors):
    pool = supervisors(1, _nested)
    assert dict(pool.run([(0, ("ok", 0))])) == {0: sum(range(100))}


def test_close_reaps_every_child(tmp_path):
    pool = Supervisor(3, _work, max_attempts=2, deadline=0.5)
    pids = {process.pid for process in pool.processes}
    list(pool.run([(0, ("kill-once", str(tmp_path / "k"))), (1, ("hang", 0))]))
    pids |= {process.pid for process in pool.processes if process is not None}
    assert len(pids) >= 4, "no worker was respawned"
    pool.close()
    pool.close()  # idempotent
    assert all(_reaped(pid) for pid in pids)
    assert pool.processes == [None, None, None]
