"""The ledger's reference workloads, as data.

Seven named workloads; later issues cite the names, so they are fixed.
Each one pins every input the program receives: how its dataset is made
from ``--seed``, the full :class:`~repro.config.ExperimentConfig`, the
measured section, and the correctness floors.  ``why`` records which
layers do most of the work there and which do none, so every
optimisation has a workload that exercises it and one that bypasses it.

A run measures for a time budget, so the number of rounds it executes
depends on the machine.  Everything that must *not* depend on the
machine — the model digest and the quality check — is taken at a fixed
round (``check_round``), which a run reaches inside its budget on the
reference box and tops up to, untimed, on a slower one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.config import (
    AsyncConfig,
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    ShardingConfig,
    TrainConfig,
)
from repro.datasets.base import InteractionDataset
from repro.datasets.synthetic import generate_longtail_dataset

__all__ = [
    "WARMUP_ROUNDS",
    "DatasetSpec",
    "SimWorkload",
    "SweepWorkload",
    "WORKLOADS",
    "by_name",
    "build_dataset",
    "build_config",
]

#: Untimed rounds before the measured loop: PIECK's miners finish
#: (``mining_rounds`` = 2), regularizers materialise for most users,
#: caches fill and pages get touched.
WARMUP_ROUNDS = 10


@dataclass(frozen=True)
class DatasetSpec:
    """How a workload's dataset is generated from the run seed.

    ``kind="longtail"`` is the calibrated Zipf generator
    (``generate_longtail_dataset(users, items, interactions, seed=S)``);
    ``kind="arithmetic"`` is the O(users) CSR cohort of the million-user
    bench, where ``interactions`` is the *per-user* train count.
    """

    kind: str
    users: int
    items: int
    interactions: int


@dataclass(frozen=True)
class SimWorkload:
    """One federated-simulation workload."""

    name: str
    why: str
    dataset: DatasetSpec
    model_kind: str = "mf"
    dim: int = 16
    attack: str | None = None
    malicious_ratio: float = 0.05
    num_targets: int = 1
    defense: str = "none"
    users_per_round: int = 1000
    lr: float = 1.0
    kernels: str = "native"
    asynchronous: bool = False
    num_shards: int = 0
    round_workers: int = 0
    #: 0 disables ranking evaluation altogether (``sharded-1m``).
    eval_num_negatives: int = 99
    #: The measured section: this many timed ``run_round`` calls, then
    #: this many timed ``evaluate()`` calls (``repro run --eval-every``).
    #: ``run_wall_s`` is the wall of one section.
    section_rounds: int = 25
    section_evals: int = 0
    #: Share of the time budget spent on timed ``evaluate()`` calls
    #: after the round loop (``eval_s_p50`` where evals are not in-loop).
    post_eval_share: float = 0.0
    #: Round (counted from 0, warm-up included) at which the model
    #: digest and the quality evaluation are taken; a section boundary.
    check_round: int = 60
    hr_floor: float | None = None
    er_floor: float | None = None
    er_ceiling: float | None = None
    #: Times the timed set-up is repeated; ``setup_s`` is their median.
    setup_repeats: int = 3

    def __post_init__(self) -> None:
        if (self.check_round - WARMUP_ROUNDS) % self.section_rounds:
            raise ValueError(
                f"{self.name}: check_round must fall on a section boundary"
            )

    @property
    def measures_evals(self) -> bool:
        return self.section_evals > 0 or self.post_eval_share > 0

    def smoke(self) -> "SimWorkload":
        """The same code path at a size that runs in about a second."""
        spec = self.dataset
        if spec.kind == "arithmetic":
            small = DatasetSpec("arithmetic", 4000, 200, 6)
        else:
            small = DatasetSpec("longtail", 240, 300, 2400)
        return dataclasses.replace(
            self,
            dataset=small,
            users_per_round=64,
            num_shards=4 if self.num_shards else 0,
            section_rounds=4,
            check_round=WARMUP_ROUNDS + 4,
            setup_repeats=1,
            hr_floor=None,
            er_floor=None,
            er_ceiling=None,
        )


@dataclass(frozen=True)
class SweepWorkload:
    """The reduced Table IV grid through the sweep orchestration stack."""

    name: str
    why: str
    dataset: str = "ml-100k"
    model_kind: str = "mf"
    attacks: tuple[str, ...] = ("a_hum", "pieck_ipe", "pieck_uea")
    defenses: tuple[str, ...] = ("none", "norm_bound", "krum", "regularization")
    rounds: int = 120
    workers: int = 2
    #: Warm (all-cache-hit) runs of the same grid after each cold run.
    warm_runs: int = 100
    #: ER@10(pieck_uea, none) - ER@10(pieck_uea, regularization), in
    #: percentage points: the paper's headline defense claim.
    er_gap_floor: float | None = 30.0
    setup_repeats: int = 25
    #: Cold runs a run makes even when the first one used up the budget:
    #: one ~7 s sample per run was too few to be steady.
    min_cold_runs: int = 3

    @property
    def num_cells(self) -> int:
        return len(self.attacks) * len(self.defenses)

    def smoke(self) -> "SweepWorkload":
        return dataclasses.replace(
            self,
            attacks=("pieck_uea",),
            defenses=("none", "regularization"),
            rounds=4,
            warm_runs=3,
            er_gap_floor=None,
            setup_repeats=1,
            min_cold_runs=1,
        )


_LONGTAIL_4K = DatasetSpec("longtail", 4000, 6000, 48000)
_LONGTAIL_2K = DatasetSpec("longtail", 2000, 3000, 24000)

WORKLOADS: tuple[SimWorkload | SweepWorkload, ...] = (
    SimWorkload(
        name="mf-plain",
        why=(
            "Fig. 6b vanilla FRS: negative sampling, spawn_batch, local step, "
            "gather/scatter, fused scatter; attacks and defenses do no work "
            "here, so it is their bypass workload."
        ),
        dataset=_LONGTAIL_4K,
        kernels="numpy",
        section_rounds=25,
        post_eval_share=0.3,
        check_round=WARMUP_ROUNDS + 150,
        hr_floor=0.5,
    ),
    SimWorkload(
        name="mf-plain-async",
        why=(
            "mf-plain through the event heap and StalenessAggregator with "
            "degenerate AsyncConfig: its round time over mf-plain's is the "
            "async overhead, and its model digest must equal mf-plain's."
        ),
        dataset=_LONGTAIL_4K,
        kernels="numpy",
        asynchronous=True,
        section_rounds=25,
        check_round=WARMUP_ROUNDS + 150,
        hr_floor=0.5,
    ),
    SimWorkload(
        name="mf-krum",
        why=(
            "Server-bound: Server.apply_batch grouped multi-Krum and the "
            "pairwise_sq_dists/segment kernels take the largest share; also "
            "the paper's claim that Krum-family defenses fail (ER@10 high)."
        ),
        dataset=_LONGTAIL_4K,
        dim=64,
        attack="pieck_uea",
        defense="multi_krum",
        section_rounds=10,
        check_round=WARMUP_ROUNDS + 50,
        hr_floor=0.5,
        er_floor=0.8,
    ),
    SimWorkload(
        name="mf-regdef",
        why=(
            "The paper's own defense: per-client ClientRegularizer hooks are "
            "most of the round and their per-user miner snapshots set peak "
            "RSS; no other simulation workload runs them."
        ),
        dataset=_LONGTAIL_2K,
        attack="pieck_uea",
        defense="regularization",
        users_per_round=512,
        section_rounds=10,
        check_round=WARMUP_ROUNDS + 60,
        hr_floor=0.35,
        # Thirty seeds read 0.06-0.60 at the check round (the same attack
        # undefended or under multi-Krum reads 0.98); 0.4 failed three.
        er_ceiling=0.8,
    ),
    SimWorkload(
        name="ncf-run",
        why=(
            "DL-FRS full run, evaluate() every 20 rounds: evaluation (MLP "
            "score_blocks + top-K) dominates the wall, rounds are attack-bound "
            "(pieck_uea through the MLP); lr 0.01, NCF collapses at 0.05."
        ),
        dataset=_LONGTAIL_2K,
        model_kind="ncf",
        attack="pieck_uea",
        users_per_round=256,
        lr=0.01,
        section_rounds=20,
        section_evals=1,
        check_round=WARMUP_ROUNDS + 60,
        # Thirty seeds read 0.16-0.42 after 70 rounds at lr 0.01; chance
        # is 0.10 (10 of 100 candidates) and the lr 0.05 collapse reads 0.
        hr_floor=0.12,
        er_floor=0.8,
    ),
    SimWorkload(
        name="sharded-1m",
        why=(
            "1M users on ShardedStateStore + ProcessRoundExecutor: set-up "
            "(segment creation, fork) and peak RSS are the point; guards "
            "store and executor refactors dense workloads cannot see."
        ),
        dataset=DatasetSpec("arithmetic", 1_000_000, 2000, 8),
        attack="a_hum",
        malicious_ratio=0.001,
        num_targets=3,
        defense="norm_bound",
        users_per_round=2000,
        lr=0.05,
        num_shards=16,
        round_workers=2,
        eval_num_negatives=0,
        section_rounds=25,
        check_round=WARMUP_ROUNDS + 50,
    ),
    SweepWorkload(
        name="sweep-table4",
        why=(
            "Small-cohort regime (189 users, ~6 ms rounds) through key hash, "
            "shm dataset transport, pool and entry write (cold) beside "
            "verify-on-read (warm): per-cell fixed costs dominate."
        ),
    ),
)


def by_name(name: str) -> SimWorkload | SweepWorkload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; expected one of "
        f"{[w.name for w in WORKLOADS]}"
    )


def _arithmetic_dataset(users: int, items: int, per_user: int, seed: int):
    """A valid leave-one-out dataset in O(users) vectorised time.

    Copied from ``bench_million_users.build_dataset`` (the legacy bench
    scripts stay untouched until they are collapsed): user ``u`` gets
    ``per_user + 1`` distinct items ``(offset_u + j * step) mod items``
    — distinct because ``step`` is coprime with ``items`` — the last one
    held out as the test item.
    """
    step = 7919  # prime > any item count used here => coprime with `items`
    if np.gcd(step, items) != 1:
        raise ValueError(f"items={items} must be coprime with {step}")
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, items, size=users, dtype=np.int64)
    draws = (
        offsets[:, None] + np.arange(per_user + 1, dtype=np.int64) * step
    ) % items
    train = np.sort(draws[:, :per_user], axis=1)
    indptr = np.arange(users + 1, dtype=np.int64) * per_user
    return InteractionDataset.from_csr(
        name="ledger-arithmetic",
        num_users=users,
        num_items=items,
        indptr=indptr,
        indices=np.ascontiguousarray(train.reshape(-1)),
        test_items=np.ascontiguousarray(draws[:, per_user]),
    )


def build_dataset(spec: DatasetSpec, seed: int) -> InteractionDataset:
    if spec.kind == "arithmetic":
        return _arithmetic_dataset(spec.users, spec.items, spec.interactions, seed)
    if spec.kind == "longtail":
        return generate_longtail_dataset(
            spec.users, spec.items, spec.interactions, seed=seed
        )
    raise ValueError(f"unknown dataset kind {spec.kind!r}")


def build_config(workload: SimWorkload, seed: int) -> ExperimentConfig:
    """The full experiment config of a simulation workload."""
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", seed=seed),
        model=ModelConfig(
            kind=workload.model_kind, embedding_dim=workload.dim, seed=seed
        ),
        train=TrainConfig(
            users_per_round=workload.users_per_round,
            lr=workload.lr,
            eval_num_negatives=workload.eval_num_negatives,
            kernels=workload.kernels,
        ),
        attack=(
            AttackConfig(
                name=workload.attack,
                malicious_ratio=workload.malicious_ratio,
                num_targets=workload.num_targets,
            )
            if workload.attack
            else None
        ),
        defense=DefenseConfig(name=workload.defense),
        asynchrony=AsyncConfig(enabled=workload.asynchronous),
        sharding=ShardingConfig(
            num_shards=workload.num_shards, round_workers=workload.round_workers
        ),
        seed=seed,
    )
