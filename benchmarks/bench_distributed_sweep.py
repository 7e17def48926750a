"""Runs sharing one sweep cache: multi-worker throughput, chaos, integrity.

Not a paper table — this benchmarks the crash-tolerant lease drain
every cached ``SweepRunner`` runs (``repro.experiments.backend`` holds
the leases) and its integrity guarantees:

* **Chaos drill.** Independent cached ``SweepRunner`` processes drain
  a reduced Table IV grid against one cache directory; the first is
  SIGKILLed mid-cell.  Acceptance: a relaunched runner finishes the
  grid, at least one stale lease is reclaimed (a retry), the cache is
  byte-identical to the sequential reference, and ``repro fsck``
  reports zero corruption.
* **2-worker throughput.** Wall-clock of two cooperating runner
  processes vs a single one on the same grid.  Acceptance on a
  >= 4-core machine: ``>= 1.8x`` speedup; on smaller machines the
  ratio is recorded but not enforced (two processes cannot beat the
  physics of one core).
* **Coordination overhead.** A single runner process vs the inline
  runner of this process on the same grid — the process and lease
  cost is recorded (never enforced; it is information, not a
  contract).
* **Warm-cache floor.** A re-run over the populated cache must be
  served >= 90% from cache, same floor as the local sweep bench.

``--smoke`` (the CI job) shrinks the grid and rounds but keeps every
assertion except the speedup floor.

Run with::

    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py          # full
    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py --smoke  # CI
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time

from _harness import emit_bench_json
from repro.experiments.presets import dataset_config, experiment
from repro.experiments.sweep import CellSpec, SweepRunner
from repro.persistence import fsck_paths

FULL_ATTACKS = ("a_hum", "pieck_ipe", "pieck_uea")
FULL_DEFENSES = ("none", "norm_bound", "krum", "regularization")
FULL_ROUNDS = 120

SMOKE_ATTACKS = ("pieck_ipe", "pieck_uea")
SMOKE_DEFENSES = ("none", "norm_bound")
SMOKE_ROUNDS = 15

SPEEDUP_FLOOR = 1.8  # 2 workers vs 1, when the machine has >= 4 cores
CACHE_HIT_FLOOR = 0.9
LEASE_TTL = 3.0


def _grid(attacks, defenses, rounds):
    dataset = "ml-100k"
    specs = [
        CellSpec(
            config=experiment(
                dataset, "mf", attack=attack, defense=defense, seed=0,
                rounds=rounds,
            ),
            dataset_key=dataset,
        )
        for defense in defenses
        for attack in attacks
    ]
    return specs, {dataset: dataset_config(dataset, seed=0)}


def _worker_main(attacks, defenses, rounds, cache_dir, stats_path):
    """One cached runner process draining the benchmark grid."""
    specs, datasets = _grid(attacks, defenses, rounds)
    runner = SweepRunner(
        cache_dir=cache_dir, lease_ttl=LEASE_TTL, cell_timeout=600.0
    )
    runner.run(specs, datasets)
    stats = runner.last_stats
    with open(stats_path, "w") as handle:
        json.dump(
            {
                "executed": stats.executed,
                "peer_served": stats.peer_served,
                "retries": stats.retries,
                "cache_hits": stats.cache_hits,
                "quarantined": stats.quarantined,
            },
            handle,
        )


def _spawn(ctx, attacks, defenses, rounds, cache_dir, stats_path):
    proc = ctx.Process(
        target=_worker_main,
        args=(attacks, defenses, rounds, cache_dir, stats_path),
    )
    proc.start()
    return proc


def _drain_with_workers(attacks, defenses, rounds, cache_dir, count, tag):
    """Run ``count`` cooperating workers to completion; returns seconds."""
    ctx = multiprocessing.get_context("fork")
    stats_dir = tempfile.mkdtemp(prefix="dist-stats-")
    started = time.perf_counter()
    procs = [
        _spawn(
            ctx, attacks, defenses, rounds, cache_dir,
            os.path.join(stats_dir, f"{tag}-{i}.json"),
        )
        for i in range(count)
    ]
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0, f"worker exited with {proc.exitcode}"
    elapsed = time.perf_counter() - started
    stats = [
        json.load(open(os.path.join(stats_dir, f"{tag}-{i}.json")))
        for i in range(count)
    ]
    return elapsed, stats


def _cache_bytes(cache_dir):
    return {
        name: open(os.path.join(cache_dir, name), "rb").read()
        for name in sorted(os.listdir(cache_dir))
        if name.endswith(".json")
    }


def _chaos_drill(attacks, defenses, rounds, seq_bytes):
    """SIGKILL one of two workers mid-cell; assert full recovery."""
    ctx = multiprocessing.get_context("fork")
    cache_dir = tempfile.mkdtemp(prefix="dist-chaos-")
    stats_dir = tempfile.mkdtemp(prefix="dist-chaos-stats-")
    victim = _spawn(
        ctx, attacks, defenses, rounds, cache_dir,
        os.path.join(stats_dir, "victim.json"),
    )
    # Let the victim claim its first lease, then kill it dead mid-cell.
    deadline = time.time() + 300
    while not any(
        name.endswith(".lease") for name in os.listdir(cache_dir)
    ) and victim.is_alive():
        assert time.time() < deadline, "victim never claimed a lease"
        time.sleep(0.05)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()

    survivor_stats_path = os.path.join(stats_dir, "survivor.json")
    survivor = _spawn(
        ctx, attacks, defenses, rounds, cache_dir, survivor_stats_path,
    )
    survivor.join()
    assert survivor.exitcode == 0, "survivor failed to finish the grid"
    stats = json.load(open(survivor_stats_path))

    leases = [n for n in os.listdir(cache_dir) if n.endswith(".lease")]
    assert leases == [], f"leases left after recovery: {leases}"
    assert stats["retries"] >= 1, (
        "the survivor reclaimed no lease — the SIGKILL landed between "
        "cells; rerun the drill"
    )
    assert _cache_bytes(cache_dir) == seq_bytes, (
        "post-chaos cache differs from the sequential reference"
    )
    report = fsck_paths(cache_dir)
    assert report.clean, f"fsck found corruption after chaos: {report.summary()}"
    print(
        f"  chaos: survivor executed {stats['executed']} cells, "
        f"retried {stats['retries']} after a stale lease; "
        f"fsck: {report.summary()}"
    )
    return stats


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    attacks = SMOKE_ATTACKS if smoke else FULL_ATTACKS
    defenses = SMOKE_DEFENSES if smoke else FULL_DEFENSES
    rounds = SMOKE_ROUNDS if smoke else FULL_ROUNDS
    cores = os.cpu_count() or 1

    specs, datasets = _grid(attacks, defenses, rounds)
    print(
        f"distributed sweep ({'smoke' if smoke else 'full'}): "
        f"{len(specs)} cells, {rounds} rounds, {cores} cores"
    )

    # -- sequential reference (also the byte-identity oracle) ----------
    seq_dir = tempfile.mkdtemp(prefix="dist-seq-")
    started = time.perf_counter()
    seq_runner = SweepRunner(workers=0, cache_dir=seq_dir)
    seq_results = seq_runner.run(specs, datasets)
    local_seconds = time.perf_counter() - started
    seq_bytes = _cache_bytes(seq_dir)
    print(f"  inline runner: {local_seconds:.2f}s")

    # -- single runner process: coordination overhead ------------------
    one_dir = tempfile.mkdtemp(prefix="dist-one-")
    one_seconds, _ = _drain_with_workers(
        attacks, defenses, rounds, one_dir, 1, "solo"
    )
    assert _cache_bytes(one_dir) == seq_bytes, (
        "single runner process cache differs from sequential"
    )
    overhead = one_seconds / max(local_seconds, 1e-9)
    print(
        f"  runner processes x1: {one_seconds:.2f}s "
        f"(coordination overhead {overhead:.2f}x vs inline)"
    )

    # -- two cooperating workers: throughput ---------------------------
    two_dir = tempfile.mkdtemp(prefix="dist-two-")
    two_seconds, two_stats = _drain_with_workers(
        attacks, defenses, rounds, two_dir, 2, "duo"
    )
    assert _cache_bytes(two_dir) == seq_bytes, (
        "2-worker shared cache differs from the sequential reference"
    )
    executed = sum(s["executed"] for s in two_stats)
    assert executed >= len(specs), "workers under-account executed cells"
    speedup = one_seconds / max(two_seconds, 1e-9)
    print(
        f"  runner processes x2: {two_seconds:.2f}s "
        f"(speedup {speedup:.2f}x vs one worker; "
        f"split {[s['executed'] for s in two_stats]})"
    )

    # -- warm re-run over the populated cache --------------------------
    warm_runner = SweepRunner(cache_dir=two_dir, lease_ttl=LEASE_TTL)
    started = time.perf_counter()
    warm_results = warm_runner.run(specs, datasets)
    warm_seconds = time.perf_counter() - started
    warm_stats = warm_runner.last_stats
    assert warm_results == seq_results, "cache round-trip changed results"
    print(
        f"  warm re-run {warm_seconds:.2f}s "
        f"({warm_stats.cache_hits}/{warm_stats.total} from cache)"
    )

    # -- chaos drill ---------------------------------------------------
    chaos_stats = _chaos_drill(attacks, defenses, rounds, seq_bytes)

    emit_bench_json(
        "distributed_sweep",
        {
            "mode": "smoke" if smoke else "full",
            "cells": len(specs),
            "rounds": rounds,
            "cpu_cores": cores,
            "local_inline_s": round(local_seconds, 3),
            "shared_one_worker_s": round(one_seconds, 3),
            "shared_two_workers_s": round(two_seconds, 3),
            "coordination_overhead": round(overhead, 3),
            "two_worker_speedup": round(speedup, 3),
            "cache_warm_s": round(warm_seconds, 3),
            "cache_hit_ratio": round(warm_stats.hit_ratio, 3),
            "chaos_retries": chaos_stats["retries"],
            "chaos_survivor_executed": chaos_stats["executed"],
            "speedup_floor_enforced": (not smoke) and cores >= 4,
        },
    )

    # -- acceptance ----------------------------------------------------
    assert warm_stats.hit_ratio >= CACHE_HIT_FLOOR, (
        f"warm re-run served only {100 * warm_stats.hit_ratio:.0f}% from "
        f"cache (floor {100 * CACHE_HIT_FLOOR:.0f}%)"
    )
    if not smoke:
        if cores >= 4:
            assert speedup >= SPEEDUP_FLOOR, (
                f"2-worker speedup {speedup:.2f}x on {cores} cores is "
                f"below the {SPEEDUP_FLOOR}x floor"
            )
        else:
            print(
                f"  (only {cores} cores: {SPEEDUP_FLOOR}x floor not "
                "enforced, recorded only)"
            )
    print("distributed sweep: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
