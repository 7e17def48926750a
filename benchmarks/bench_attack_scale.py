"""Adversary scaling: MaliciousCohort vs object-per-client attacks.

Not a paper table — this benchmarks the *adversary layer* at
production team sizes (the ROADMAP's 1% of a million users is ~10k
malicious clients; the full scale here runs 2k):

* **Round throughput.** One round of the adversary layer through a
  :class:`~repro.attacks.cohort.MaliciousCohort` (struct-of-arrays
  counters, shared Δ-Norm observation ledger, per-distinct-mined-set
  PIECK-IPE payloads, stacked uploads) versus the per-object oracle
  of ``tests/reference/`` (``reference.attackers``: one
  ``participate`` call, counter and miner per member) over an
  independently built team, both against the model of a simulation
  that trains alongside.  Acceptance: ``>= 3x`` faster per round at the full
  scale of 2k malicious clients (``>= 2x`` at smoke scale), with
  **bit-identical** uploads every round.
* **O(1) item-matrix copies.** The shared observation ledger must
  snapshot each round's item matrix at most once regardless of team
  size: the ``snapshot_copies`` counter is asserted equal for a small
  and a large team over the same schedule, and a ``tracemalloc``
  bound on a mining-phase round proves the cohort allocates a small
  constant number of item matrices — not the one-copy-per-sampled-
  client retention the per-object trackers used to pay.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_attack_scale.py -s
    PYTHONPATH=src python benchmarks/bench_attack_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_attack_scale.py --smoke   # CI
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from _harness import emit_bench_json
from reference import attackers
from repro.attacks.mining import CohortMiner
from repro.attacks.registry import build_malicious_cohort
from repro.config import (
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.simulation import FederatedSimulation

EMBEDDING_DIM = 16
SEED = 5
ATTACK = "pieck_ipe"  # the paper's attack; heaviest per-object adversary

#: (benign users, items, interactions, malicious clients,
#:  users_per_round, measured rounds, round-speedup floor)
FULL_SCALE = (1_000, 2_500, 40_000, 2_000, 1_050, 10, 3.0)
SMOKE_SCALE = (400, 1_000, 16_000, 800, 420, 8, 2.0)

#: Zipf exponent of the synthetic catalogue.  A realistic long-tail
#: skew concentrates the Δ-Norm ranking, so distinct sampling
#: histories converge to fewer distinct mined sets — the regime the
#: paper's datasets live in and the one the IPE payload dedup serves.
POPULARITY_EXPONENT = 1.3

#: tracemalloc bound: the adversary layer's mining-phase pass must
#: stay under a quarter of what one item-matrix copy per sampled
#: malicious client would retain (the pre-ledger per-object
#: behaviour).
PEAK_DIVISOR = 4


def _config(num_benign: int, num_malicious: int, users_per_round: int) -> ExperimentConfig:
    # malicious_ratio is measured against the *total* population
    # (registry converts back), so m/(benign+m) reproduces the count.
    ratio = num_malicious / (num_benign + num_malicious)
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom"),
        model=ModelConfig(kind="mf", embedding_dim=EMBEDDING_DIM),
        train=TrainConfig(rounds=12, users_per_round=users_per_round, lr=1.0),
        attack=AttackConfig(name=ATTACK, malicious_ratio=ratio),
        seed=SEED,
    )


def _build_team(sim: FederatedSimulation):
    """A fresh attacker team, built exactly like the simulation's own."""
    return build_malicious_cohort(
        sim.attack_cfg.name,
        dataset=sim.dataset,
        config=sim.attack_cfg,
        targets=sim.targets,
        embedding_dim=sim.config.model.embedding_dim,
        num_malicious=sim.malicious_cohort.num_clients,
        first_user_id=sim.dataset.num_users,
        seed=sim.config.seed,
    )


def _same_upload(upload, update) -> bool:
    if upload is None or update is None:
        return upload is update
    return (
        upload.user_id == update.user_id
        and np.array_equal(upload.item_ids, update.item_ids)
        and np.array_equal(upload.item_grads, update.item_grads)
        and len(upload.param_grads) == len(update.param_grads)
        and all(
            np.array_equal(got, ref)
            for got, ref in zip(upload.param_grads, update.param_grads)
        )
    )


def _measure_rounds(
    sim: FederatedSimulation, rounds: int
) -> tuple[float, float, int, int]:
    """Interleaved adversary-layer medians over a training run.

    Returns ``(cohort s/round, object s/round, sampled malicious,
    distinct IPE payloads of the last round)``.  ``sim`` only supplies
    the trajectory: each round both teams compute their uploads
    against its round-start model, then it trains the round (through
    its own cohort) to move the model on.
    """
    cohort = _build_team(sim)
    objects = attackers(_build_team(sim))
    train_cfg = sim.config.train
    cohort_times: list[float] = []
    object_times: list[float] = []
    num_benign = sim.dataset.num_users
    sampled_malicious = 0
    for round_idx in range(rounds + 2):
        sampled = sim.server.sample_users(
            sim.total_users, train_cfg.users_per_round, round_idx
        )
        rows = sampled[sampled >= num_benign] - num_benign
        sampled_malicious = max(sampled_malicious, len(rows))

        started = time.perf_counter()
        uploads = cohort.compute_uploads(sim.model, train_cfg, round_idx, rows)
        cohort_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        updates = [
            objects[int(row)].participate(sim.model, train_cfg, round_idx)
            for row in rows
        ]
        object_times.append(time.perf_counter() - started)

        # Same round, same model -> the two adversary paths must emit
        # bit-identical uploads (the cohort's core contract).
        assert all(map(_same_upload, uploads, updates)), (
            f"round {round_idx}: cohort diverged from the per-object reference"
        )
        sim.run_round(round_idx)
    return (
        float(np.median(cohort_times[2:])),
        float(np.median(object_times[2:])),
        sampled_malicious,
        cohort.last_round_payloads,
    )


def _measure_copy_independence(num_items: int, rounds: int = 6) -> tuple[int, int]:
    """Ledger snapshot copies for a small and a large team, same schedule."""
    rng = np.random.default_rng(0)
    matrices = [
        rng.normal(size=(num_items, EMBEDDING_DIM)) for _ in range(rounds)
    ]
    copies = []
    for team in (50, 2_000):
        miner = CohortMiner(num_items, 2, 10, team)
        for round_idx, matrix in enumerate(matrices):
            miner.observe(np.arange(team), matrix, round_idx)
        copies.append(miner.snapshot_copies)
    return copies[0], copies[1]


def _measure_mining_peak(dataset, config) -> tuple[int, int]:
    """(tracemalloc peak, per-object retention bound) of mining passes.

    Measures the adversary layer alone — ``compute_uploads`` over the
    first rounds, covering baseline snapshots, Δ-Norm accumulation and
    the freezing argsort.  The pre-ledger per-object path retained one
    ``(num_items, dim)`` copy per sampled client per round; the
    cohort's ledger must stay far below that.
    """
    sim = FederatedSimulation(config, dataset=dataset)
    cohort = sim.malicious_cohort
    num_benign = dataset.num_users
    item_bytes = dataset.num_items * EMBEDDING_DIM * 8
    peak = 0
    min_sampled = dataset.num_users
    for round_idx in range(config.attack.mining_rounds + 2):
        sampled = sim.server.sample_users(
            sim.total_users, config.train.users_per_round, round_idx
        )
        rows = sampled[sampled >= num_benign] - num_benign
        min_sampled = min(min_sampled, len(rows))
        tracemalloc.start()
        cohort.compute_uploads(sim.model, config.train, round_idx, rows)
        _, round_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak = max(peak, int(round_peak))
    return peak, min_sampled * item_bytes // PEAK_DIVISOR


def run_attack_scale(smoke: bool = False) -> tuple[str, dict, dict]:
    """Benchmark the adversary layer at one scale.

    Returns ``(report, checks, json_payload)``; ``checks`` carries the
    numbers the acceptance assertions read.
    """
    (
        num_benign,
        num_items,
        num_interactions,
        num_malicious,
        users_per_round,
        rounds,
        speedup_floor,
    ) = SMOKE_SCALE if smoke else FULL_SCALE
    dataset = generate_longtail_dataset(
        num_benign,
        num_items,
        num_interactions,
        popularity_exponent=POPULARITY_EXPONENT,
        seed=0,
        name="attack-scale",
    )
    config = _config(num_benign, num_malicious, users_per_round)

    sim = FederatedSimulation(config, dataset=dataset)
    assert sim.malicious_cohort.num_clients == num_malicious
    cohort_spr, object_spr, sampled_malicious, payload_dedup = _measure_rounds(
        sim, rounds
    )
    speedup = object_spr / cohort_spr

    small_copies, large_copies = _measure_copy_independence(num_items)
    mining_peak, peak_bound = _measure_mining_peak(dataset, config)

    lines = [
        f"Adversary scaling: {ATTACK} with {num_malicious} malicious clients "
        f"over {num_benign} benign users x {num_items} items "
        f"(MF dim={EMBEDDING_DIM}{', smoke' if smoke else ''})",
        f"{'metric':<38} {'object':>12} {'cohort':>12} {'ratio':>8}",
        f"{'round (ms, ~' + str(sampled_malicious) + ' malicious sampled)':<38} "
        f"{object_spr * 1e3:>12.2f} {cohort_spr * 1e3:>12.2f} {speedup:>7.2f}x",
        f"ledger item-matrix copies over one schedule: team of 50 -> "
        f"{small_copies}, team of 2000 -> {large_copies} (independent of team size)",
        f"mining-round peak: {mining_peak / 2**20:.1f} MiB "
        f"(per-object retention bound: {peak_bound / 2**20:.1f} MiB)",
        f"IPE payload dedup (last round): {payload_dedup} distinct mined sets "
        f"optimised for {sampled_malicious} sampled clients",
        f"acceptance: round >= {speedup_floor:.1f}x, copies independent of team "
        f"size, peak < bound, bit-identical uploads",
    ]
    checks = {
        "speedup": speedup,
        "speedup_floor": speedup_floor,
        "small_copies": small_copies,
        "large_copies": large_copies,
        "mining_peak_bytes": mining_peak,
        "peak_bound_bytes": peak_bound,
    }
    payload = {
        "config": {
            "smoke": smoke,
            "attack": ATTACK,
            "num_benign": num_benign,
            "num_items": num_items,
            "num_interactions": num_interactions,
            "num_malicious": num_malicious,
            "users_per_round": users_per_round,
            "measured_rounds": rounds,
            "embedding_dim": EMBEDDING_DIM,
        },
        "round": {
            "object_seconds_per_round": object_spr,
            "cohort_seconds_per_round": cohort_spr,
            "speedup": speedup,
            "sampled_malicious": sampled_malicious,
        },
        "ledger": {
            "copies_team_50": small_copies,
            "copies_team_2000": large_copies,
            "mining_round_peak_bytes": mining_peak,
            "per_object_retention_bound_bytes": peak_bound,
        },
        "ipe_payloads_last_round": payload_dedup,
    }
    return "\n".join(lines), checks, payload


def _assert_acceptance(checks: dict, report: str) -> None:
    assert checks["speedup"] >= checks["speedup_floor"], report
    assert checks["small_copies"] == checks["large_copies"], report
    assert checks["mining_peak_bytes"] < checks["peak_bound_bytes"], report


def test_attack_scale(archive, bench_json):
    report, checks, payload = run_attack_scale(smoke=False)
    archive("attack_scale", report)
    bench_json.update(payload)
    _assert_acceptance(checks, report)


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    report, checks, payload = run_attack_scale(smoke=smoke_mode)
    print(report)
    emit_bench_json("attack_scale", payload)
    _assert_acceptance(checks, report)
