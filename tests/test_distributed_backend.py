"""Runs sharing one cache directory: lease coordination, chaos, parity.

Every cached sweep runs its cells under lease files next to the
entries, so runs pointed at one cache directory drain one grid
together.  Runners here are *real processes* (forked, or SIGKILLed
mid-cell) so lease recovery is exercised against actual process death,
not a simulated exception.  The contract under test is the standing
invariant: however many runs drain the grid, and however many of them
die, the cache ends up with entries byte-identical to the sequential
reference, and every degradation path is counted.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.datasets.loaders import load_dataset
from repro.experiments.backend import (
    acquire_lease,
    lease_age,
    lease_path_for,
    read_lease,
    refresh_lease,
    release_lease,
    try_claim_lease,
    try_reclaim_lease,
)
from repro.experiments.sweep import (
    CellSpec,
    SweepExecutionError,
    SweepRunner,
    _waits,
    cell_cache_key,
    dataset_fingerprint,
    register_cell_kind,
)

DATASET = DatasetConfig(name="custom", scale=0.08, seed=5)


def _config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DATASET,
        model=ModelConfig(kind="mf", embedding_dim=8, seed=seed),
        train=TrainConfig(rounds=2, users_per_round=8, lr=1.0),
        seed=seed,
    )


def _fast(spec: CellSpec, dataset) -> list[list[float]]:
    """Deterministic cell with no training: value derives from payload."""
    index = spec.payload[-1]
    return [[float(index), float(index) ** 2]]


def _slow(spec: CellSpec, dataset) -> list[list[float]]:
    """Announce the start (marker file), then take a while."""
    marker_dir, index = spec.payload
    with open(os.path.join(marker_dir, f"started-{index}"), "w"):
        pass
    time.sleep(1.0)
    return [[float(index), float(index) ** 2]]


def _nap(spec: CellSpec, dataset) -> list[list[float]]:
    """Long enough for a peer run to find the cell leased."""
    time.sleep(0.3)
    return _fast(spec, dataset)


def _killed_once(spec: CellSpec, dataset) -> list[list[float]]:
    """SIGKILL the hosting process the first time each cell runs."""
    marker_dir, index = spec.payload
    marker = os.path.join(marker_dir, f"killed-{index}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [[float(index), float(index) ** 2]]


def _always_crash(spec: CellSpec, dataset) -> list[list[float]]:
    os._exit(1)


register_cell_kind("test_dist_fast", _fast)
register_cell_kind("test_dist_slow", _slow)
register_cell_kind("test_dist_nap", _nap)
register_cell_kind("test_dist_killed_once", _killed_once)
register_cell_kind("test_dist_always_crash", _always_crash)


def _cells(kind: str, marker_dir: str, count: int) -> list[CellSpec]:
    return [
        CellSpec(
            config=_config(seed=3 + index),
            kind=kind,
            payload=(marker_dir, index),
        )
        for index in range(count)
    ]


def _expected(count: int) -> list[list[list[float]]]:
    return [[[float(i), float(i) ** 2]] for i in range(count)]


def _cache_bytes(cache_dir: str) -> dict[str, bytes]:
    return {
        name: open(os.path.join(cache_dir, name), "rb").read()
        for name in sorted(os.listdir(cache_dir))
        if name.endswith(".json")
    }


def _leases(cache_dir: str) -> list[str]:
    return [name for name in os.listdir(cache_dir) if name.endswith(".lease")]


def _lease_of(cache_dir: str, spec: CellSpec) -> str:
    key = cell_cache_key(spec, dataset_fingerprint(load_dataset(DATASET)))
    return lease_path_for(os.path.join(cache_dir, f"{key}.json"))


def _runner_main(
    kind: str,
    marker_dir: str,
    count: int,
    cache_dir: str,
    stats_path: str,
    lease_ttl: float = 2.0,
    workers: int = 0,
    dataset=DATASET,
    barrier=None,
) -> None:
    """One independent runner process draining the shared grid."""
    runner = SweepRunner(
        workers=workers, cache_dir=cache_dir, lease_ttl=lease_ttl, cell_timeout=60.0
    )
    if barrier is not None:
        barrier.wait()
    runner.run(_cells(kind, marker_dir, count), {"default": dataset})
    stats = runner.last_stats
    with open(stats_path, "w") as handle:
        json.dump(
            {
                "executed": stats.executed,
                "peer_served": stats.peer_served,
                "retries": stats.retries,
                "cache_hits": stats.cache_hits,
            },
            handle,
        )


class TestLeasePrimitives:
    def test_exclusive_claim(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        assert try_claim_lease(path, {"owner": "a", "token": "a#1"})
        assert not try_claim_lease(path, {"owner": "b", "token": "b#1"})
        assert read_lease(path)["owner"] == "a"

    def test_release_frees_the_cell(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        try_claim_lease(path, {"owner": "a", "token": "a#1"})
        release_lease(path)
        assert read_lease(path) is None
        assert try_claim_lease(path, {"owner": "b", "token": "b#1"})

    def test_release_is_idempotent(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        release_lease(path)  # never claimed: no error

    def test_heartbeat_refreshes_age(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        try_claim_lease(path, {"owner": "a", "token": "a#1"})
        os.utime(path, (time.time() - 100, time.time() - 100))
        assert lease_age(path) > 50
        assert refresh_lease(path)
        assert lease_age(path) < 5

    def test_refresh_reports_vanished_lease(self, tmp_path):
        assert not refresh_lease(str(tmp_path / "gone.lease"))

    def test_reclaim_confirms_via_token(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        try_claim_lease(path, {"owner": "dead", "token": "dead#1"})
        assert try_reclaim_lease(path, {"owner": "b", "token": "b#1"}, "b#1")
        assert read_lease(path)["owner"] == "b"

    def test_racing_reclaims_last_writer_owns(self, tmp_path):
        # Sequential replacements: the file always holds exactly the
        # last writer's record — one token, one owner, at any instant.
        path = str(tmp_path / "cell.json.lease")
        try_claim_lease(path, {"owner": "dead", "token": "dead#1"})
        assert try_reclaim_lease(path, {"owner": "b", "token": "b#1"}, "b#1")
        assert try_reclaim_lease(path, {"owner": "c", "token": "c#1"}, "c#1")
        assert read_lease(path) == {"owner": "c", "token": "c#1"}

    def test_reclaim_not_confirmed_when_overwritten_before_readback(
        self, tmp_path
    ):
        # Simulate losing the race: the read-back sees a token other
        # than ours (a peer's replace landed in between) → no confirm.
        path = str(tmp_path / "cell.json.lease")
        try_claim_lease(path, {"owner": "peer", "token": "peer#1"})
        assert not try_reclaim_lease(
            path, {"owner": "peer", "token": "peer#1"}, "mine#1"
        )

    def test_lease_age_none_when_missing(self, tmp_path):
        assert lease_age(str(tmp_path / "gone.lease")) is None

    def test_lease_path_sits_next_to_entry(self):
        assert lease_path_for("/cache/abc.json") == "/cache/abc.json.lease"

    def test_own_lease_is_retaken_at_once(self, tmp_path):
        # A live lease of the same owner belongs to a dead attempt of
        # the same task: the supervisor never runs a task twice at once.
        path = str(tmp_path / "cell.json.lease")
        assert acquire_lease(path, "run-a", ttl=30.0) == "claimed"
        assert acquire_lease(path, "run-a", ttl=30.0) == "retaken"
        assert read_lease(path)["owner"] == "run-a"

    def test_peer_lease_is_busy_until_stale(self, tmp_path):
        path = str(tmp_path / "cell.json.lease")
        assert acquire_lease(path, "run-a", ttl=30.0) == "claimed"
        assert acquire_lease(path, "run-b", ttl=30.0) is None
        os.utime(path, (time.time() - 60, time.time() - 60))
        assert acquire_lease(path, "run-b", ttl=30.0) == "reclaimed"
        assert read_lease(path)["owner"] == "run-b"


class TestSharedBackendSingleWorker:
    """One runner on a cache directory that peers could share."""

    def test_matches_sequential_reference_byte_identical(self, tmp_path):
        seq_dir = str(tmp_path / "seq")
        shared_dir = str(tmp_path / "shared")
        cells = _cells("test_dist_fast", str(tmp_path), 4)
        SweepRunner(workers=0, cache_dir=seq_dir).run(cells, {"default": DATASET})
        runner = SweepRunner(workers=2, cache_dir=shared_dir, lease_ttl=5.0)
        results = runner.run(cells, {"default": DATASET})
        assert results == _expected(4)
        assert _cache_bytes(shared_dir) == _cache_bytes(seq_dir)
        assert runner.last_stats.executed == 4
        assert runner.last_stats.retries == 0

    def test_no_leases_left_behind(self, tmp_path):
        for workers in (0, 2):
            cache_dir = str(tmp_path / f"cache-{workers}")
            runner = SweepRunner(workers=workers, cache_dir=cache_dir, lease_ttl=5.0)
            runner.run(
                _cells("test_dist_fast", str(tmp_path), 3), {"default": DATASET}
            )
            assert _leases(cache_dir) == []

    def test_warm_cache_serves_everything(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cells = _cells("test_dist_fast", str(tmp_path), 3)
        SweepRunner(cache_dir=cache_dir, lease_ttl=5.0).run(
            cells, {"default": DATASET}
        )
        rerun = SweepRunner(cache_dir=cache_dir, lease_ttl=5.0)
        rerun.run(cells, {"default": DATASET})
        assert rerun.last_stats.cache_hits == 3
        assert rerun.last_stats.executed == 0

    def test_stale_lease_of_dead_worker_is_reclaimed(self, tmp_path):
        # Plant a lease nobody heartbeats, older than the ttl: the
        # drain must take it over (a retry), run the cell, and finish.
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        cells = _cells("test_dist_fast", str(tmp_path), 2)
        lease = _lease_of(cache_dir, cells[0])
        try_claim_lease(lease, {"owner": "dead", "token": "dead#1"})
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        runner = SweepRunner(cache_dir=cache_dir, lease_ttl=2.0)
        results = runner.run(cells, {"default": DATASET})
        assert results == _expected(2)
        assert runner.last_stats.retries == 1
        assert _leases(cache_dir) == []

    def test_live_lease_fails_at_cell_timeout(self, tmp_path):
        # A fresh lease that is never released and never goes stale
        # must end in a structured error after cell_timeout without
        # progress, not an infinite spin.
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        cells = _cells("test_dist_fast", str(tmp_path), 1)
        try_claim_lease(
            _lease_of(cache_dir, cells[0]), {"owner": "wedged", "token": "wedged#1"}
        )
        runner = SweepRunner(cache_dir=cache_dir, lease_ttl=30.0, cell_timeout=0.5)
        with pytest.raises(SweepExecutionError, match="no progress"):
            runner.run(cells, {"default": DATASET})
        assert runner.last_stats.failed == 1

    def test_jitter_is_deterministic_per_owner(self):
        draws_a = list(itertools.islice(_waits("worker-a"), 8))
        draws_b = list(itertools.islice(_waits("worker-a"), 8))
        draws_c = list(itertools.islice(_waits("worker-b"), 8))
        assert draws_a == draws_b
        assert draws_a != draws_c
        # Jitter in [0.5, 1.5) around a doubling wait capped at 2 s.
        assert 0.025 <= draws_a[0] < 0.075
        assert all(1.0 <= wait < 3.0 for wait in draws_a[6:])

    def test_sigkilled_pool_worker_retakes_its_own_lease(self, tmp_path):
        # The retry of a cell whose worker was SIGKILLed holding its
        # lease takes that lease over at once, in the same run(), far
        # inside lease_ttl.
        cache_dir = str(tmp_path / "cache")
        cells = _cells("test_dist_killed_once", str(tmp_path), 3)
        runner = SweepRunner(
            workers=2, cache_dir=cache_dir, lease_ttl=30.0, retry_backoff=0.01
        )
        started = time.perf_counter()
        results = runner.run(cells, {"default": DATASET})
        assert time.perf_counter() - started < 10.0
        assert results == _expected(3)
        assert runner.last_stats.retries >= 3
        assert runner.last_stats.failed == 0
        assert _leases(cache_dir) == []

    def test_failed_cell_releases_its_lease(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cells = _cells("test_dist_always_crash", str(tmp_path), 2)
        runner = SweepRunner(
            workers=2, cache_dir=cache_dir, max_retries=1, retry_backoff=0.01
        )
        with pytest.raises(SweepExecutionError):
            runner.run(cells, {"default": DATASET})
        assert runner.last_stats.failed == 2
        assert _leases(cache_dir) == []

    def test_quarantine_found_in_a_worker_travels_back(self, tmp_path, monkeypatch):
        # The parent's cache pass misses; the pool worker's re-check
        # finds a corrupt entry, quarantines it, and says so in its reply.
        import repro.experiments.sweep as sweep_mod

        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        cells = _cells("test_dist_fast", str(tmp_path), 2)
        entry = _lease_of(cache_dir, cells[0])[: -len(".lease")]
        with open(entry, "w") as handle:
            handle.write('{"key": "torn')
        real_read = sweep_mod.read_sweep_entry
        reads: dict[str, int] = {}

        def read_after_the_cache_pass(path):
            reads[path] = reads.get(path, 0) + 1
            return (None, "missing") if reads[path] == 1 else real_read(path)

        monkeypatch.setattr(sweep_mod, "read_sweep_entry", read_after_the_cache_pass)
        runner = SweepRunner(workers=2, cache_dir=cache_dir)
        assert runner.run(cells, {"default": DATASET}) == _expected(2)
        assert runner.last_stats.quarantined == 1
        assert runner.last_stats.executed == 2


class TestSharedBackendMultiWorker:
    def test_two_workers_cooperatively_drain_the_grid(self, tmp_path):
        # Two pooled runners on one grid execute each cell exactly once
        # between them; the other runner is served by the peer's entry.
        cache_dir = str(tmp_path / "cache")
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir)
        count = 6
        dataset = load_dataset(DATASET)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        stats_paths = [str(tmp_path / f"stats-{i}.json") for i in range(2)]
        runners = [
            ctx.Process(
                target=_runner_main,
                args=(
                    "test_dist_nap", marker_dir, count, cache_dir,
                    stats_paths[i], 30.0, 2, dataset, barrier,
                ),
            )
            for i in range(2)
        ]
        for proc in runners:
            proc.start()
        for proc in runners:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        stats = [json.load(open(path)) for path in stats_paths]
        assert sum(s["executed"] for s in stats) == count
        assert sum(s["peer_served"] for s in stats) == count
        assert sum(s["cache_hits"] + s["retries"] for s in stats) == 0
        assert _leases(cache_dir) == []
        # The shared cache matches the sequential reference bit for bit.
        seq_dir = str(tmp_path / "seq")
        SweepRunner(workers=0, cache_dir=seq_dir).run(
            _cells("test_dist_nap", marker_dir, count), {"default": DATASET}
        )
        assert _cache_bytes(cache_dir) == _cache_bytes(seq_dir)

    @pytest.mark.slow
    def test_sigkilled_worker_mid_cell_is_reclaimed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir)
        count = 3
        ctx = multiprocessing.get_context("fork")
        victim_stats = str(tmp_path / "stats-victim.json")
        survivor_stats = str(tmp_path / "stats-survivor.json")
        victim = ctx.Process(
            target=_runner_main,
            args=(
                "test_dist_slow", marker_dir, count, cache_dir,
                victim_stats, 1.0,
            ),
        )
        victim.start()
        # Wait until the victim is demonstrably mid-cell (it wrote a
        # started marker, so it holds that cell's lease), then kill it
        # dead — no cleanup, no release.
        deadline = time.time() + 60
        while not os.listdir(marker_dir):
            assert time.time() < deadline, "victim never started a cell"
            time.sleep(0.02)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        assert not os.path.exists(victim_stats)
        survivor = ctx.Process(
            target=_runner_main,
            args=(
                "test_dist_slow", marker_dir, count, cache_dir,
                survivor_stats, 1.0,
            ),
        )
        survivor.start()
        survivor.join(timeout=120)
        assert survivor.exitcode == 0
        stats = json.load(open(survivor_stats))
        # The survivor finished the whole grid, reclaiming the dead
        # runner's lease once it went stale: a retry.
        leases_left = [
            n for n in os.listdir(cache_dir) if n.endswith(".lease")
        ]
        assert leases_left == []
        entries = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
        assert len(entries) == count
        assert stats["executed"] + stats["cache_hits"] == count
        assert stats["retries"] >= 1
        # Byte-identical to the sequential reference despite the chaos
        # (same specs — the marker dir is part of the payload, hence of
        # the cache key).
        seq_dir = str(tmp_path / "seq")
        SweepRunner(workers=0, cache_dir=seq_dir).run(
            _cells("test_dist_slow", marker_dir, count), {"default": DATASET}
        )
        assert _cache_bytes(cache_dir) == _cache_bytes(seq_dir)
