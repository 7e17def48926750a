"""Asynchronous engine: sync-parity overhead floor + staleness curve.

Two questions, answered with numbers and asserted in CI:

* **What does the event loop cost at matched work?**  The degenerate
  asynchronous configuration performs exactly the synchronous batch
  engine's math — same cohorts, same gradients, same aggregation —
  plus the event-queue machinery: virtual clock, one arrival event
  per distinct arrival instant, the transit's staleness drain.  Sync and degenerate-async
  runs are timed pairwise-interleaved (per-repeat ratios, median —
  this cancels machine drift) and the median ratio is asserted
  ``<= OVERHEAD_CEILING``.  Both trajectories must also be
  **bit-identical** — the overhead being measured is pure plumbing.

* **How does the attack's reach degrade as the federation gets more
  asynchronous?**  A network-latency sweep under PIECK-IPE with
  client churn (fault dropout) records the ER@K / HR@K curve plus
  both counter records per point into ``BENCH_async_engine.json`` — the
  machine-readable record of how staleness erodes (or fails to erode)
  a popularity-mining attack.

Run with::

    PYTHONPATH=src python benchmarks/bench_async_engine.py           # full
    PYTHONPATH=src python benchmarks/bench_async_engine.py --smoke   # CI
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time

import numpy as np

from _harness import emit_bench_json
from repro.config import (
    AsyncConfig,
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.simulation import FederatedSimulation

SEED = 3

#: (dataset scale, rounds, users_per_round, timing repeats)
FULL = (0.6, 40, 256, 7)
SMOKE = (0.15, 15, 64, 5)

#: Acceptance ceiling on the median async/sync ratio at matched work.
OVERHEAD_CEILING = 1.15

#: Network-latency grid for the staleness curve (mean delay in units
#: of the round interval) with churn (fault dropout) held fixed.
NETWORK_GRID = (0.0, 0.5, 1.5, 3.0)
CURVE_CHURN = FaultConfig(dropout_rate=0.2, staleness_discount=0.6, max_staleness=6)


def _config(scale, rounds, users_per_round, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=scale, seed=5),
        model=ModelConfig(kind="mf", embedding_dim=16, seed=SEED),
        train=TrainConfig(rounds=rounds, users_per_round=users_per_round, lr=1.0),
        seed=SEED,
        **kwargs,
    )


def _one_run(config: ExperimentConfig) -> tuple[float, object, np.ndarray]:
    """Seconds-per-round plus the final item table of one run."""
    sim = FederatedSimulation(config)
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    return elapsed / config.train.rounds, result, sim.model.item_embeddings.copy()


def overhead_floor(scale, rounds, users_per_round, repeats) -> dict:
    sync_cfg = _config(scale, rounds, users_per_round)
    async_cfg = dataclasses.replace(
        sync_cfg, asynchrony=AsyncConfig(enabled=True)
    )

    ratios, sync_spr, async_spr = [], [], []
    for _ in range(repeats):
        spr_sync, _, items_sync = _one_run(sync_cfg)
        spr_async, result_async, items_async = _one_run(async_cfg)
        sync_spr.append(spr_sync)
        async_spr.append(spr_async)
        ratios.append(spr_async / spr_sync)

    ratio = statistics.median(ratios)
    print(
        f"matched-work overhead: sync {statistics.median(sync_spr) * 1e3:.2f} "
        f"ms/round, degenerate async {ratio:.3f}x "
        f"(ceiling {OVERHEAD_CEILING:.2f}x)"
    )
    assert items_async.tobytes() == items_sync.tobytes(), (
        "degenerate async diverged from the synchronous engine; the "
        "overhead being measured is not matched work"
    )
    stats = result_async.async_stats
    assert stats.uploads_applied == stats.clients_dispatched > 0
    assert ratio <= OVERHEAD_CEILING, (
        f"event loop costs {ratio:.3f}x per round at matched work, "
        f"over the {OVERHEAD_CEILING:.2f}x ceiling"
    )
    return {
        "sync_sec_per_round": statistics.median(sync_spr),
        "async_sec_per_round": statistics.median(async_spr),
        "overhead_ratio": ratio,
        "ceiling": OVERHEAD_CEILING,
    }


def staleness_degradation(scale, rounds, users_per_round) -> list[dict]:
    """ER@K / HR@K versus mean network latency under PIECK-IPE + churn."""
    curve = []
    for network_mean in NETWORK_GRID:
        cfg = _config(
            scale,
            rounds,
            users_per_round,
            attack=AttackConfig(
                name="pieck_ipe", malicious_ratio=0.1, mining_rounds=2
            ),
            asynchrony=AsyncConfig(
                enabled=True,
                traffic="poisson",
                arrival_rate=8.0,
                network_mean=network_mean,
                round_deadline=1.5,
            ),
            faults=CURVE_CHURN,
        )
        _, result, items = _one_run(cfg)
        assert np.isfinite(items).all()
        fates = result.fault_stats
        assert fates.dropped_uploads > 0  # churn fired
        if network_mean > 0:
            assert fates.stale_applied > 0  # latency actually made staleness
        point = {
            "network_mean": network_mean,
            "dropout_rate": CURVE_CHURN.dropout_rate,
            "er_at_k": result.exposure,
            "hr_at_k": result.hit_ratio,
            "fault_stats": fates.to_dict(),
            "async_stats": result.async_stats.to_dict(),
        }
        curve.append(point)
        print(
            f"network={network_mean:.1f}: ER@K={result.exposure:.4f} "
            f"HR@K={result.hit_ratio:.4f} "
            f"(stale {fates.stale_applied}, dropped {fates.stale_dropped}, "
            f"max delay {fates.max_staleness_applied})"
        )
    return curve


def main() -> None:
    smoke = "--smoke" in sys.argv
    scale, rounds, users_per_round, repeats = SMOKE if smoke else FULL
    overhead = overhead_floor(scale, rounds, users_per_round, repeats)
    curve = staleness_degradation(scale, rounds, users_per_round)
    path = emit_bench_json(
        "async_engine",
        {
            "mode": "smoke" if smoke else "full",
            "config": {
                "dataset_scale": scale,
                "rounds": rounds,
                "users_per_round": users_per_round,
                "timing_repeats": repeats,
            },
            "matched_work_overhead": overhead,
            "staleness_degradation": curve,
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
