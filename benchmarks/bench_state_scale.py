"""Client-state scaling: struct-of-arrays store vs object-per-user.

Not a paper table — this benchmarks the *state layer* behind every
simulation at production user counts:

* **Construction.** Building the benign population as the default
  one-heap-shard :class:`~repro.federated.shards.ShardedStateStore`
  (one vectorised embedding-matrix init + one CSR pack) versus the original
  object-per-user path (one reference ``BenignClient`` from
  ``tests/reference/`` with its own RNG spawn and embedding draw per
  user).  Acceptance: ``>= 5x`` faster at the
  full scale of 100k users (``>= 2x`` at smoke scale, where fixed
  overheads weigh more), with bit-identical state.
* **Round hand-off.** The batch engine on the store (``gather_rows`` /
  ``positives_list`` / ``scatter_rows``) versus the reference API on
  *standalone* clients (owned attribute arrays — the true pre-store
  layout): one ``participate`` call per sampled client into the
  reference ``apply_updates``, on its own copy of the model, which
  must end bit-identical.  The state layer itself must never be slower
  than object stacking (typically ~1.2-1.7x faster at 100k users);
  the full round must not regress (``>= 0.9x``).
* **Evaluation memory.** The chunked streaming evaluation must stay
  well under the dense ``num_users x num_items`` score matrix it
  replaces (asserted via ``tracemalloc``): peak traced memory below
  half (smoke) / a quarter (full) of the dense-scores footprint, i.e.
  no ``U x I`` array is ever materialised.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_state_scale.py -s
    PYTHONPATH=src python benchmarks/bench_state_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_state_scale.py --smoke   # CI
"""

from __future__ import annotations

import copy
import sys
import time
import tracemalloc

import numpy as np

from _harness import emit_bench_json
from reference import BenignClient, apply_updates
from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.server import Server
from repro.federated.simulation import FederatedSimulation
from repro.federated.shards import ShardedStateStore

EMBEDDING_DIM = 16
SEED = 3

#: (num_users, num_items, num_interactions, users_per_round,
#:  eval_chunk_users, construction floor, dense-scores peak divisor)
FULL_SCALE = (100_000, 5_000, 800_000, 1_000, 1_024, 5.0, 4)
SMOKE_SCALE = (4_000, 1_200, 40_000, 500, 256, 2.0, 2)

ROUND_FLOOR = 0.9  # full-round: no regression (noise margin)
GATHER_FLOOR = 1.0  # state layer alone: never slower than object stacking


def _config(users_per_round: int, eval_chunk_users: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom"),
        model=ModelConfig(kind="mf", embedding_dim=EMBEDDING_DIM),
        train=TrainConfig(
            rounds=8,
            users_per_round=users_per_round,
            lr=1.0,
            eval_chunk_users=eval_chunk_users,
        ),
        seed=SEED,
    )


def _measure_construction(dataset) -> tuple[float, float, list[BenignClient]]:
    """(object seconds, store seconds, standalone clients), best-of.

    The returned standalone clients (owned arrays, the pre-store
    layout) are the baseline population the round and gather
    measurements below run against.
    """
    started = time.perf_counter()
    clients = [
        BenignClient(
            user,
            dataset.train_pos[user],
            dataset.num_items,
            EMBEDDING_DIM,
            seed=SEED,
        )
        for user in range(dataset.num_users)
    ]
    object_seconds = time.perf_counter() - started

    store_seconds = np.inf
    for _ in range(3):
        started = time.perf_counter()
        store = ShardedStateStore.build(
            dataset.train_pos, dataset.num_items, EMBEDDING_DIM, seed=SEED
        )
        store_seconds = min(store_seconds, time.perf_counter() - started)

    # The layouts must hold identical state, not merely be fast.
    stride = max(1, dataset.num_users // 97)
    for user in range(0, dataset.num_users, stride):
        assert np.array_equal(store.row(user), clients[user].user_embedding)
        assert np.array_equal(store.positives(user), clients[user].positive_items)
    return object_seconds, store_seconds, clients


def _measure_rounds(
    sim: FederatedSimulation, clients: list[BenignClient], rounds: int
) -> tuple[float, float]:
    """Interleaved (store s/round, per-object s/round) medians.

    The object side is the reference API on *standalone* clients —
    owned attribute arrays, exactly the pre-store layout — training
    its own copy of the model, so the ratio measures the store-backed
    engine against the real object-per-user baseline and the two
    models can be compared afterwards.
    """
    train_cfg = sim.config.train
    object_model = copy.deepcopy(sim.model)
    object_server = Server(object_model, train_cfg.lr, seed=sim.config.seed)
    store_times: list[float] = []
    object_times: list[float] = []
    for round_idx in range(rounds + 2):
        sampled = sim.server.sample_users(
            sim.total_users, train_cfg.users_per_round, round_idx
        )
        started = time.perf_counter()
        sim._batch_engine.run_round(round_idx, sampled)
        store_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        apply_updates(
            object_server,
            [
                clients[int(user)].participate(object_model, train_cfg, round_idx)
                for user in sampled
            ],
        )
        object_times.append(time.perf_counter() - started)
    assert np.array_equal(sim.model.item_embeddings, object_model.item_embeddings), (
        "store-backed rounds diverged from the per-object reference"
    )
    return (
        float(np.median(store_times[2:])),
        float(np.median(object_times[2:])),
    )


def _measure_gather(
    sim: FederatedSimulation, all_clients: list[BenignClient], users_per_round: int
) -> tuple[float, float]:
    """State-layer cost alone: store gather+slices vs object stacking.

    The object side stacks *standalone* clients (owned arrays), the
    true pre-store baseline.
    """
    store = sim.state
    rng = np.random.default_rng(0)
    benign_ids = np.sort(
        rng.choice(store.num_users, size=users_per_round, replace=False)
    ).astype(np.int64)
    clients = [all_clients[int(user)] for user in benign_ids]
    repeats = 30

    store_seconds = object_seconds = np.inf
    for _ in range(3):  # best-of-3 per side to damp cache/noise effects
        started = time.perf_counter()
        for _ in range(repeats):
            store.gather_rows(benign_ids)
            store.positives_list(benign_ids)
        store_seconds = min(
            store_seconds, (time.perf_counter() - started) / repeats
        )

        started = time.perf_counter()
        for _ in range(repeats):
            np.stack([client.user_embedding for client in clients])
            [client.positive_items for client in clients]
        object_seconds = min(
            object_seconds, (time.perf_counter() - started) / repeats
        )
    return store_seconds, object_seconds


def _measure_eval_memory(sim: FederatedSimulation) -> tuple[float, int]:
    """(evaluate seconds, tracemalloc peak bytes) of one streaming pass."""
    tracemalloc.start()
    started = time.perf_counter()
    sim.evaluate()
    seconds = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, int(peak)


def run_state_scale(smoke: bool = False) -> tuple[str, dict, dict]:
    """Benchmark the state layer at one scale.

    Returns ``(report, checks, json_payload)``; ``checks`` carries the
    numbers the acceptance assertions read.
    """
    (
        num_users,
        num_items,
        num_interactions,
        users_per_round,
        eval_chunk,
        construction_floor,
        peak_divisor,
    ) = SMOKE_SCALE if smoke else FULL_SCALE
    dataset = generate_longtail_dataset(
        num_users, num_items, num_interactions, seed=0, name="state-scale"
    )
    object_seconds, store_seconds, clients = _measure_construction(dataset)
    construction_speedup = object_seconds / store_seconds

    sim = FederatedSimulation(
        _config(users_per_round, eval_chunk), dataset=dataset
    )
    store_spr, object_spr = _measure_rounds(sim, clients, rounds=8)
    round_ratio = object_spr / store_spr
    gather_store, gather_object = _measure_gather(sim, clients, users_per_round)
    gather_speedup = gather_object / gather_store

    eval_seconds, eval_peak = _measure_eval_memory(sim)
    dense_scores_bytes = num_users * num_items * 8

    lines = [
        f"Client-state scaling at {num_users} users x {num_items} items "
        f"(MF dim={EMBEDDING_DIM}{', smoke' if smoke else ''})",
        f"{'metric':<34} {'object':>12} {'store':>12} {'ratio':>8}",
        f"{'construction (s)':<34} {object_seconds:>12.3f} {store_seconds:>12.3f} "
        f"{construction_speedup:>7.2f}x",
        f"{'round (ms, ' + str(users_per_round) + ' clients)':<34} "
        f"{object_spr * 1e3:>12.2f} {store_spr * 1e3:>12.2f} {round_ratio:>7.2f}x",
        f"{'state gather/stack (ms)':<34} {gather_object * 1e3:>12.3f} "
        f"{gather_store * 1e3:>12.3f} {gather_speedup:>7.2f}x",
        f"streaming evaluation: {eval_seconds:.2f}s, peak {eval_peak / 2**20:.0f} MiB "
        f"(dense scores alone would be {dense_scores_bytes / 2**20:.0f} MiB)",
        f"acceptance: construction >= {construction_floor:.1f}x, round >= "
        f"{ROUND_FLOOR:.1f}x, gather >= {GATHER_FLOOR:.1f}x, eval peak < dense/"
        f"{peak_divisor}, bit-identical models",
    ]
    checks = {
        "construction_speedup": construction_speedup,
        "construction_floor": construction_floor,
        "round_ratio": round_ratio,
        "gather_speedup": gather_speedup,
        "eval_peak_bytes": eval_peak,
        "peak_bound_bytes": dense_scores_bytes // peak_divisor,
    }
    payload = {
        "config": {
            "smoke": smoke,
            "num_users": num_users,
            "num_items": num_items,
            "num_interactions": num_interactions,
            "users_per_round": users_per_round,
            "eval_chunk_users": eval_chunk,
            "embedding_dim": EMBEDDING_DIM,
        },
        "construction": {
            "object_seconds": object_seconds,
            "store_seconds": store_seconds,
            "speedup": construction_speedup,
        },
        "round": {
            "object_seconds_per_round": object_spr,
            "store_seconds_per_round": store_spr,
            "speedup": round_ratio,
        },
        "state_gather": {
            "object_seconds": gather_object,
            "store_seconds": gather_store,
            "speedup": gather_speedup,
        },
        "evaluation": {
            "seconds": eval_seconds,
            "peak_bytes": eval_peak,
            "dense_scores_bytes": dense_scores_bytes,
        },
    }
    return "\n".join(lines), checks, payload


def _assert_acceptance(checks: dict, report: str) -> None:
    assert checks["construction_speedup"] >= checks["construction_floor"], report
    assert checks["round_ratio"] >= ROUND_FLOOR, report
    assert checks["gather_speedup"] >= GATHER_FLOOR, report
    assert checks["eval_peak_bytes"] < checks["peak_bound_bytes"], report


def test_state_scale(archive, bench_json):
    report, checks, payload = run_state_scale(smoke=False)
    archive("state_scale", report)
    bench_json.update(payload)
    _assert_acceptance(checks, report)


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    report, checks, payload = run_state_scale(smoke=smoke_mode)
    print(report)
    emit_bench_json("state_scale", payload)
    _assert_acceptance(checks, report)
