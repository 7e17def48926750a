"""Million-user scale: sharded store in shared mappings + process executor.

Not a paper table — this benchmarks the million-user execution layer
(``repro.federated.shards`` + ``ProcessRoundExecutor``) and pins its
contracts:

* **Scale + memory.** Real attacked-and-defended federated rounds over
  >= 1M benign users (full mode), with an *asserted* peak-RSS bound:
  client state is O(users x dim) in shared mappings, never
  O(users x items), and never N per-worker copies.
* **Bit-identity.** The multi-process executor's trajectory (item
  embeddings + a streamed hash of every user embedding) must equal the
  single-process sharded run, which itself is pinned to the dense
  reference by the executor parity suite.
* **Throughput.** Multi-worker rounds vs single-process rounds on the
  same store. Acceptance on a >= 4-core machine (full mode):
  ``>= 2x`` speedup; on smaller machines the ratio is recorded but not
  enforced.
* **Chaos.** One round worker is SIGKILLed between rounds; the
  executor must respawn it and the trajectory must stay bit-identical.
* **Zero silent fallbacks.** Every round must go through the worker
  pool (``process_rounds == rounds``), the store must be on the mmap
  allocator, and the pooled sweep, whose workers inherit the datasets
  with the fork, must leave no named shared-memory segment and return
  the inline run's results.

``--smoke`` (the CI job) shrinks the cohort but keeps every assertion
except the speedup floor.

Run with::

    PYTHONPATH=src python benchmarks/bench_million_users.py          # full
    PYTHONPATH=src python benchmarks/bench_million_users.py --smoke  # CI
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import tempfile
import time

import numpy as np

from _harness import emit_bench_json, peak_rss_bytes
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    ShardingConfig,
    TrainConfig,
)
from repro.datasets.base import InteractionDataset
from repro.experiments.presets import dataset_config, experiment
from repro.experiments.sweep import CellSpec, SweepRunner
from repro.federated.shards import list_repro_segments
from repro.federated.simulation import FederatedSimulation

FULL = dict(
    users=1_000_000,
    items=2_000,
    per_user=8,
    dim=16,
    rounds=4,
    users_per_round=2_000,
    shards=16,
    rss_bound_bytes=int(1.5 * 2**30),
)
SMOKE = dict(
    users=60_000,
    items=400,
    per_user=6,
    dim=8,
    rounds=3,
    users_per_round=800,
    shards=8,
    rss_bound_bytes=int(0.75 * 2**30),
)

SPEEDUP_FLOOR = 2.0  # multi-process vs single-process, >= 4 cores, full
HASH_BLOCK_ROWS = 100_000


def build_dataset(users: int, items: int, per_user: int, seed: int):
    """A valid leave-one-out dataset in O(users) vectorised time.

    The calibrated long-tail generator draws per user in Python — fine
    at sweep scale, hours at 1M users — so the bench builds its cohort
    arithmetically: user ``u`` gets ``per_user + 1`` *distinct* items
    ``(offset_u + j * step) mod items`` (distinct because ``step`` is
    coprime with ``items``), the last one held out as the test item.
    Offsets are drawn per user, so item popularity is near-uniform —
    this bench measures throughput and memory, not ranking quality.
    """
    step = 7919  # prime > any bench item count => coprime with `items`
    assert np.gcd(step, items) == 1
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, items, size=users, dtype=np.int64)
    draws = (
        offsets[:, None] + np.arange(per_user + 1, dtype=np.int64) * step
    ) % items
    train = np.sort(draws[:, :per_user], axis=1)
    indptr = np.arange(users + 1, dtype=np.int64) * per_user
    return InteractionDataset.from_csr(
        name="million-bench",
        num_users=users,
        num_items=items,
        indptr=indptr,
        indices=np.ascontiguousarray(train.reshape(-1)),
        test_items=np.ascontiguousarray(draws[:, per_user]),
    )


def bench_config(p: dict, *, shards: int, workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="million-bench"),
        model=ModelConfig(kind="mf", embedding_dim=p["dim"]),
        train=TrainConfig(
            rounds=p["rounds"],
            users_per_round=p["users_per_round"],
            eval_every=0,
            eval_num_negatives=0,
        ),
        attack=AttackConfig(name="a_hum", malicious_ratio=0.001, num_targets=3),
        defense=DefenseConfig(name="norm_bound"),
        sharding=ShardingConfig(num_shards=shards, round_workers=workers),
        seed=0,
    )


def embedding_hash(sim: FederatedSimulation) -> str:
    """Streamed sha256 over every user embedding row (no dense copy)."""
    digest = hashlib.sha256()
    num_users = sim.dataset.num_users
    for lo in range(0, num_users, HASH_BLOCK_ROWS):
        hi = min(lo + HASH_BLOCK_ROWS, num_users)
        block = sim.state.embedding_block(lo, hi)
        digest.update(np.ascontiguousarray(block).tobytes())
    return digest.hexdigest()


def run_rounds(sim: FederatedSimulation, rounds: int, *, kill_worker_at=None):
    """Execute ``rounds`` rounds; optionally SIGKILL a worker mid-run."""
    started = time.perf_counter()
    for round_idx in range(rounds):
        if round_idx == kill_worker_at:
            victim = sim.executor._workers.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
        sim.run_round(round_idx)
    return time.perf_counter() - started


def sweep_pool_leg() -> tuple[list, list, list[str]]:
    """Tiny sweep, pooled and inline; returns both results and the
    repro segments this process still holds after the pooled run."""
    dataset = "ml-100k"
    specs = [
        CellSpec(
            config=experiment(
                dataset, "mf", attack="none", defense=defense, seed=0, rounds=3
            ),
            dataset_key=dataset,
        )
        for defense in ("none", "norm_bound")
    ]
    datasets = {dataset: dataset_config(dataset, seed=0)}
    results = []
    for workers in (2, 0):
        with tempfile.TemporaryDirectory(prefix="million-sweep-") as cache_dir:
            runner = SweepRunner(cache_dir=cache_dir, workers=workers)
            results.append(runner.run(specs, datasets))
        if workers:
            mine = f"repro_shm_{os.getpid()}_"
            left = [r["name"] for r in list_repro_segments()
                    if r["name"].startswith(mine)]
    return results[0], results[1], left


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    p = SMOKE if smoke else FULL
    cores = os.cpu_count() or 1
    workers = max(2, min(4, cores))

    print(
        f"million users ({'smoke' if smoke else 'full'}): "
        f"{p['users']:,} users, {p['items']} items, {p['rounds']} rounds, "
        f"{p['shards']} shards, {workers} workers, {cores} cores"
    )
    started = time.perf_counter()
    dataset = build_dataset(p["users"], p["items"], p["per_user"], seed=1)
    build_seconds = time.perf_counter() - started
    print(f"  dataset built in {build_seconds:.2f}s "
          f"({dataset.num_train_interactions:,} interactions)")

    # -- single-process sharded reference ------------------------------
    single_cfg = bench_config(p, shards=p["shards"], workers=0)
    with FederatedSimulation(single_cfg, dataset) as single:
        assert single.state.backend == "mmap", "store not on the mmap allocator"
        single_seconds = run_rounds(single, p["rounds"])
        single_items = single.model.item_embeddings.copy()
        single_hash = embedding_hash(single)
    print(f"  single-process: {single_seconds:.2f}s "
          f"({p['rounds'] / single_seconds:.2f} rounds/s)")

    # -- multi-process executor ----------------------------------------
    multi_cfg = bench_config(p, shards=p["shards"], workers=workers)
    with FederatedSimulation(multi_cfg, dataset) as multi:
        multi_seconds = run_rounds(multi, p["rounds"])
        engine = multi._batch_engine
        assert engine.process_rounds == p["rounds"], (
            f"only {engine.process_rounds}/{p['rounds']} rounds went "
            "through the worker pool — a silent in-process fallback"
        )
        assert multi.executor.respawns == 0, "workers died in the clean run"
        assert np.array_equal(multi.model.item_embeddings, single_items), (
            "multi-process item embeddings diverge from single-process"
        )
        multi_hash = embedding_hash(multi)
        assert multi_hash == single_hash, (
            "multi-process user embeddings diverge from single-process"
        )
    speedup = single_seconds / max(multi_seconds, 1e-9)
    print(f"  {workers}-worker executor: {multi_seconds:.2f}s "
          f"(speedup {speedup:.2f}x, bit-identical)")

    # -- chaos: SIGKILL one round worker, trajectory must not change ---
    chaos_cfg = bench_config(p, shards=p["shards"], workers=workers)
    with FederatedSimulation(chaos_cfg, dataset) as chaos:
        run_rounds(chaos, p["rounds"], kill_worker_at=p["rounds"] // 2)
        assert chaos.executor.respawns >= 1, "SIGKILL was absorbed silently?"
        assert np.array_equal(chaos.model.item_embeddings, single_items), (
            "post-chaos item embeddings diverge"
        )
        assert embedding_hash(chaos) == single_hash, (
            "post-chaos user embeddings diverge"
        )
        chaos_respawns = chaos.executor.respawns
    print(f"  chaos: worker SIGKILLed, {chaos_respawns} respawn(s), "
          "trajectory bit-identical")

    # -- sweep pool: datasets ride the fork ----------------------------
    pooled, inline, left = sweep_pool_leg()
    assert not left, f"pooled sweep left shared-memory segments: {left}"
    assert pooled == inline, "pooled sweep results differ from the inline run"
    print("  sweep pool: no shared-memory segment, results equal inline")

    # -- memory ---------------------------------------------------------
    peak = peak_rss_bytes()
    assert peak is not None, "peak RSS unmeasurable on this platform"
    print(f"  peak RSS {peak / 2**30:.2f} GiB "
          f"(bound {p['rss_bound_bytes'] / 2**30:.2f} GiB)")
    assert peak <= p["rss_bound_bytes"], (
        f"peak RSS {peak / 2**30:.2f} GiB exceeds the "
        f"{p['rss_bound_bytes'] / 2**30:.2f} GiB bound — client state "
        "is no longer O(users x dim)"
    )

    emit_bench_json(
        "million_users",
        {
            "mode": "smoke" if smoke else "full",
            "users": p["users"],
            "items": p["items"],
            "rounds": p["rounds"],
            "shards": p["shards"],
            "workers": workers,
            "cpu_cores": cores,
            "dataset_build_s": round(build_seconds, 3),
            "single_process_s": round(single_seconds, 3),
            "multi_process_s": round(multi_seconds, 3),
            "speedup": round(speedup, 3),
            "rounds_per_s_multi": round(p["rounds"] / max(multi_seconds, 1e-9), 3),
            "chaos_respawns": chaos_respawns,
            "sweep_segments_left": len(left),
            "rss_bound_bytes": p["rss_bound_bytes"],
            "speedup_floor_enforced": (not smoke) and cores >= 4,
        },
    )

    # -- acceptance ----------------------------------------------------
    if not smoke:
        if cores >= 4:
            assert speedup >= SPEEDUP_FLOOR, (
                f"{workers}-worker speedup {speedup:.2f}x on {cores} "
                f"cores is below the {SPEEDUP_FLOOR}x floor"
            )
        else:
            print(
                f"  (only {cores} cores: {SPEEDUP_FLOOR}x floor not "
                "enforced, recorded only)"
            )
    print("million users: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
