"""Async smoke: an attack x defense grid under dropout, latency and deadlines.

The CI gate for the asynchronous engine as a *system*, in two parts:

**Churn grid** — every cell of a small attack x defense grid runs the
event-driven engine under bursty Poisson traffic, compute/network
latency, client churn (fault dropout) and a tight round deadline, and
must

* finish without crashing, with a finite model;
* actually exercise the asynchronous machinery (waves dispatched,
  uploads dropped, stale uploads applied — an async run where
  nothing was ever late tests nothing);
* conserve every upload (dispatched == dropped + arrived + still in
  flight, and arrived == applied + dropped stale + still parked;
  nothing vanishes silently);
* reproduce bit-identically when re-run with the same seed.

One more cell runs the same traffic with the other client faults on
top (stragglers, corruption — faults compose with asynchrony through
the one upload transit) and must also count every fault kind.

**Sync parity** — the degenerate configuration (instant traffic, zero
latency, no faults, buffer = cohort) must reproduce the synchronous
batch engine *bit for bit* across the same grid and both model kinds.
This is the contract that pins the event loop's ordering semantics;
it honours ``REPRO_KERNELS`` so the native CI leg runs it too.

Run with::

    PYTHONPATH=src python benchmarks/async_smoke.py            # both parts
    PYTHONPATH=src python benchmarks/async_smoke.py --parity   # parity only
"""

from __future__ import annotations

import sys

import numpy as np

from repro.config import (
    AsyncConfig,
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

BUSY = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=6.0,
    compute_mean=0.2,
    network_mean=0.5,
    buffer_size=12,
    round_deadline=1.5,
)
#: The churn (fault dropout), staleness discount and cap of every cell.
CHURNY = FaultConfig(dropout_rate=0.15, staleness_discount=0.6, max_staleness=4)
#: Client faults of the faults x async cell; its dropout is ``CHURNY``'s
#: churn plus 0.1 of further fault dropout.
FAULTY = FaultConfig(
    dropout_rate=0.25,
    straggler_rate=0.15,
    straggler_max_delay=3,
    corruption_rate=0.1,
    corruption_mode="nan",
    staleness_discount=0.6,
    max_staleness=4,
)


def _config(attack: str, defense: str, model_kind: str = "mf", **kwargs) -> ExperimentConfig:
    if model_kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        train = TrainConfig(rounds=10, users_per_round=24, lr=1.0)
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        train = TrainConfig(rounds=10, users_per_round=24, lr=0.05)
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.1, seed=5),
        model=model,
        train=train,
        attack=AttackConfig(name=attack, malicious_ratio=0.1, mining_rounds=2),
        defense=DefenseConfig(name=defense),
        seed=3,
        **kwargs,
    )


def _run(config: ExperimentConfig):
    sim = FederatedSimulation(config)
    result = sim.run()
    return result, sim.model.item_embeddings.copy()


def churn_grid() -> None:
    cells = [(a, d, CHURNY) for a in ATTACKS for d in DEFENSES]
    cells.append(("pieck_uea", "median", FAULTY))
    for attack, defense, faults in cells:
        config = _config(attack, defense, asynchrony=BUSY, faults=faults)
        result, items = _run(config)
        stats, fates = result.async_stats, result.fault_stats
        label = f"{attack} x {defense}" + (" x faults" if faults is FAULTY else "")
        assert np.isfinite(items).all(), f"{label}: non-finite model"
        assert stats.waves_dispatched > 0, f"{label}: no waves dispatched"
        assert fates.dropped_uploads > 0, f"{label}: churn never fired"
        assert fates.stale_applied > 0, f"{label}: no stale upload landed"
        assert stats.uploads_applied > 0, f"{label}: nothing aggregated"
        assert stats.clients_dispatched == (
            fates.dropped_uploads
            + stats.uploads_arrived
            + stats.uploads_in_flight
        ), f"{label}: upload conservation violated"
        assert stats.uploads_arrived == (
            stats.uploads_applied + fates.stale_dropped + fates.uploads_parked
        ), f"{label}: arrival conservation violated"
        if faults is FAULTY:
            for name in ("dropped_uploads", "deferred_uploads",
                         "corrupted_uploads", "rejected_nonfinite"):
                assert getattr(fates, name) > 0, f"{label}: {name} is zero"
        rerun_result, rerun_items = _run(config)
        assert rerun_items.tobytes() == items.tobytes(), (
            f"{label}: async run is not reproducible"
        )
        assert rerun_result.async_stats == stats
        assert rerun_result.fault_stats == result.fault_stats
        print(
            f"{label}: ER@K={result.exposure:.4f} HR@K={result.hit_ratio:.4f} "
            f"dropped={fates.dropped_uploads} stale={fates.stale_applied} "
            f"stale_dropped={fates.stale_dropped} "
            f"deadline_closes={stats.rounds_closed_by_deadline} [ok]"
        )
    print("async smoke: all churn cells survived, counted, and reproduced")


def sync_parity() -> None:
    degenerate = AsyncConfig(enabled=True)
    for model_kind in ("mf", "ncf"):
        for attack in ATTACKS:
            for defense in DEFENSES:
                label = f"{model_kind}: {attack} x {defense}"
                _, sync_items = _run(_config(attack, defense, model_kind))
                _, async_items = _run(
                    _config(attack, defense, model_kind, asynchrony=degenerate)
                )
                assert async_items.tobytes() == sync_items.tobytes(), (
                    f"{label}: degenerate async diverged from the "
                    "synchronous engine"
                )
                print(f"{label}: degenerate async == sync, bit for bit [ok]")
    print("async smoke: sync-equivalence held on every cell")


def main() -> None:
    parity_only = "--parity" in sys.argv
    if not parity_only:
        churn_grid()
    sync_parity()


if __name__ == "__main__":
    main()
