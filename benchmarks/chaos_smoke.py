"""Chaos smoke: a reduced attack x defense grid under an aggressive fault plan.

The CI gate for the fault-tolerance layer as a *system*: every cell of
a small attack x defense grid trains under simultaneous dropout,
stragglers and payload corruption, and must

* finish without crashing, with a finite model;
* actually exercise every fault kind (all injection counters > 0 —
  a chaos run where nothing went wrong tests nothing);
* reject every corrupted upload at the server gate (corruption mode
  ``nan``: injected == rejected, nothing poisons the table silently);
* reproduce bit-identically when re-run with the same seed — chaos is
  deterministic here, or no failure under it is debuggable.

Run with::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.simulation import FederatedSimulation

ATTACKS = ("pieck_uea", "pieck_ipe")
DEFENSES = ("none", "median", "regularization")

CHAOS = FaultConfig(
    dropout_rate=0.2,
    straggler_rate=0.15,
    straggler_max_delay=2,
    corruption_rate=0.1,
    corruption_mode="nan",
    min_quorum=2,
)


def _config(attack: str, defense: str) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.1, seed=5),
        model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
        train=TrainConfig(rounds=10, users_per_round=24, lr=1.0),
        attack=AttackConfig(name=attack, malicious_ratio=0.1, mining_rounds=2),
        defense=DefenseConfig(name=defense),
        faults=CHAOS,
        seed=3,
    )


def _run(config: ExperimentConfig):
    sim = FederatedSimulation(config)
    result = sim.run()
    return result, sim.model.item_embeddings.copy()


def main() -> None:
    for attack in ATTACKS:
        for defense in DEFENSES:
            config = _config(attack, defense)
            result, items = _run(config)
            stats = result.fault_stats
            label = f"{attack} x {defense}"
            assert np.isfinite(items).all(), f"{label}: non-finite model"
            assert stats.dropped_uploads > 0, f"{label}: no dropouts fired"
            assert stats.deferred_uploads > 0, f"{label}: no stragglers fired"
            assert stats.stale_applied > 0, f"{label}: no stale upload landed"
            assert stats.corrupted_uploads > 0, f"{label}: no corruption fired"
            assert stats.rejected_nonfinite == stats.corrupted_uploads, (
                f"{label}: {stats.corrupted_uploads} corrupted but "
                f"{stats.rejected_nonfinite} rejected — the gate leaked"
            )
            rerun_result, rerun_items = _run(config)
            assert rerun_items.tobytes() == items.tobytes(), (
                f"{label}: chaos run is not reproducible"
            )
            assert rerun_result.fault_stats == stats
            print(
                f"{label}: ER@K={result.exposure:.4f} HR@K={result.hit_ratio:.4f} "
                f"dropped={stats.dropped_uploads} deferred={stats.deferred_uploads} "
                f"corrupted={stats.corrupted_uploads} "
                f"quorum_failed={stats.quorum_failed_rounds} [ok]"
            )
    print("chaos smoke: all cells survived, counted, and reproduced")


if __name__ == "__main__":
    main()
