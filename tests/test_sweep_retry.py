"""Self-healing sweep pool: crash retry, permanent failure, hang detection.

Worker processes are killed for real (``os._exit``) — these tests
exercise the supervisor's respawn-and-retry path, not a simulated
exception; with a cache, a retry takes over its own lease at once.
The executors are module-level and keyed by marker files under the
cell's ``payload`` directory, so behaviour is per-cell and survives
the respawned workers.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.experiments.sweep import (
    CellSpec,
    SweepExecutionError,
    SweepRunner,
    register_cell_kind,
)


def _config(seed: int = 3) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.08, seed=5),
        model=ModelConfig(kind="mf", embedding_dim=8, seed=seed),
        train=TrainConfig(rounds=2, users_per_round=8, lr=1.0),
        seed=seed,
    )


def _cells(kind: str, marker_dir: str, count: int = 4) -> list[CellSpec]:
    return [
        CellSpec(
            config=_config(seed=3 + index),
            kind=kind,
            payload=(marker_dir, index),
        )
        for index in range(count)
    ]


def _crash_once(spec: CellSpec, dataset) -> list[list[float]]:
    """Kill the hosting worker the first time each cell runs."""
    marker_dir, index = spec.payload
    marker = os.path.join(marker_dir, f"ran-{index}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return [[float(index), 1.0]]


def _always_crash(spec: CellSpec, dataset) -> list[list[float]]:
    os._exit(1)


def _hang(spec: CellSpec, dataset) -> list[list[float]]:
    time.sleep(120)
    return [[0.0, 0.0]]


register_cell_kind("test_crash_once", _crash_once)
register_cell_kind("test_always_crash", _always_crash)
register_cell_kind("test_hang", _hang)


class TestCrashRecovery:
    def test_killed_workers_are_retried_to_completion(self, tmp_path):
        # 4 cells that each kill their first worker, on a 2-worker
        # pool: every attempt "first-runs" at most 2 new cells before
        # the pool breaks, so completion needs several respawns.
        runner = SweepRunner(workers=2, max_retries=5, retry_backoff=0.01)
        cells = _cells("test_crash_once", str(tmp_path))
        results = runner.run(cells, {"default": DatasetConfig(name="custom", scale=0.08, seed=5)})
        assert results == [[[float(i), 1.0]] for i in range(4)]
        assert runner.last_stats.retries > 0
        assert runner.last_stats.failed == 0

    def test_completed_cells_land_in_cache_across_crashes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir)
        datasets = {"default": DatasetConfig(name="custom", scale=0.08, seed=5)}
        runner = SweepRunner(
            workers=2, cache_dir=cache_dir, max_retries=5, retry_backoff=0.01
        )
        first = runner.run(_cells("test_crash_once", marker_dir), datasets)
        # Same sweep again: everything must come from the cache — no
        # marker file is touched, no worker crashes.
        rerun = SweepRunner(workers=2, cache_dir=cache_dir)
        second = rerun.run(_cells("test_crash_once", marker_dir), datasets)
        assert second == first
        assert rerun.last_stats.cache_hits == 4
        assert rerun.last_stats.executed == 0


class TestPermanentFailure:
    def test_exhausted_retries_raise_structured_error(self, tmp_path):
        runner = SweepRunner(workers=2, max_retries=1, retry_backoff=0.01)
        cells = _cells("test_always_crash", str(tmp_path), count=2)
        datasets = {"default": DatasetConfig(name="custom", scale=0.08, seed=5)}
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run(cells, datasets)
        failures = excinfo.value.failures
        assert {f.index for f in failures} == {0, 1}
        assert all(f.kind == "test_always_crash" for f in failures)
        assert all(f.attempts == 2 for f in failures)
        assert runner.last_stats.failed == 2

    def test_partial_failure_still_caches_survivors(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir)
        datasets = {"default": DatasetConfig(name="custom", scale=0.08, seed=5)}
        good = _cells("test_crash_once", marker_dir, count=2)
        bad = _cells("test_always_crash", marker_dir, count=2)
        runner = SweepRunner(
            workers=2, cache_dir=cache_dir, max_retries=4, retry_backoff=0.01
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run(good + bad, datasets)
        # The always-crashing cells fail for sure; a flaky cell *may*
        # also exhaust its retries as collateral of the broken pools.
        failed = {f.index for f in excinfo.value.failures}
        assert failed >= {2, 3}
        # Whatever did finish is in the cache: a retry sweep of the
        # recoverable cells completes and serves survivors for free.
        rerun = SweepRunner(
            workers=2, cache_dir=cache_dir, max_retries=5, retry_backoff=0.01
        )
        results = rerun.run(good, datasets)
        assert results == [[[0.0, 1.0]], [[1.0, 1.0]]]
        survivors = 2 - len(failed - {2, 3})
        assert rerun.last_stats.cache_hits >= survivors


@pytest.mark.slow
class TestHangDetection:
    def test_hung_workers_are_terminated_and_reported(self, tmp_path):
        runner = SweepRunner(
            workers=2, max_retries=1, retry_backoff=0.01, cell_timeout=1.0
        )
        cells = _cells("test_hang", str(tmp_path), count=2)
        datasets = {"default": DatasetConfig(name="custom", scale=0.08, seed=5)}
        started = time.perf_counter()
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run(cells, datasets)
        elapsed = time.perf_counter() - started
        # Two attempts of a 1s timeout plus pool spin-up — nowhere
        # near the 120s the executor tries to sleep.
        assert elapsed < 30.0
        assert all(
            "pool presumed hung" in f.error for f in excinfo.value.failures
        )
        assert runner.last_stats.failed == 2
