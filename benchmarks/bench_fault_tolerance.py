"""Fault-tolerance layer: zero-fault overhead floor + degradation curve.

Two questions, answered with numbers and asserted in CI:

* **What does tolerance cost when nothing fails?**  Three runs are
  timed pairwise-interleaved (per-repeat ratios, median taken — this
  cancels machine drift that would swamp a 5 % bound):

  - *stripped* — the same code with the server gate monkeypatched to
    the identity: the pre-fault-tolerance baseline, reconstructed;
  - *default* — what every run pays now unconditionally: the one-pass
    non-finite screen.  Asserted ``<= OVERHEAD_CEILING`` (5 % full
    scale) over stripped;
  - *armed* — opt-in ``min_quorum`` + ``max_upload_norm`` thresholds
    that never fire; the norm gate inherently re-reads every gradient,
    so this carries a looser regression ceiling.

  All three must also be **bit-identical**: tolerance that never
  triggers must be invisible in the results, not just cheap.

* **How does the attack's reach degrade as the federation gets less
  reliable?**  A dropout-rate sweep under PIECK-UEA records the
  ER@K / HR@K curve plus the full fault accounting per rate into
  ``BENCH_fault_tolerance.json`` — the machine-readable record of how
  gracefully an unreliable federation degrades.

Run with::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py           # full
    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke   # CI
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time

import numpy as np

from _harness import emit_bench_json
from repro.config import (
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.simulation import FederatedSimulation

SEED = 3

#: (dataset scale, rounds, users_per_round, timing repeats, ceiling)
#: Smoke relaxes the ceiling: at tiny scale the gate's fixed per-round
#: cost weighs against much smaller round bodies.
FULL = (0.6, 40, 256, 7, 1.05)
SMOKE = (0.15, 15, 64, 5, 1.20)

#: The armed norm gate re-reads every gradient element each round —
#: an inherent extra pass, bounded here against regression rather
#: than held to the always-on budget.
ARMED_CEILING = 1.6

DROPOUT_GRID = (0.0, 0.1, 0.2, 0.4)

ARMED_NEVER_FIRING = FaultConfig(min_quorum=1, max_upload_norm=1e12)


def _config(scale: float, rounds: int, users_per_round: int, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=scale, seed=5),
        model=ModelConfig(kind="mf", embedding_dim=16, seed=SEED),
        train=TrainConfig(rounds=rounds, users_per_round=users_per_round, lr=1.0),
        seed=SEED,
        **kwargs,
    )


def _one_run(config: ExperimentConfig, stripped: bool) -> tuple[float, object, np.ndarray]:
    """Seconds-per-round of one full run (optionally with the gate off)."""
    from repro.federated.server import Server

    original = Server._gate_batch
    if stripped:
        Server._gate_batch = lambda self, batch: batch
    try:
        sim = FederatedSimulation(config)
        started = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - started
    finally:
        Server._gate_batch = original
    return elapsed / config.train.rounds, result, sim.model.item_embeddings.copy()


def overhead_floor(scale, rounds, users_per_round, repeats, ceiling) -> dict:
    base_cfg = _config(scale, rounds, users_per_round)
    armed_cfg = dataclasses.replace(base_cfg, faults=ARMED_NEVER_FIRING)

    # Interleaved repeats; per-repeat ratios against the stripped run
    # of the same repeat cancel slow machine drift.
    default_ratios, armed_ratios = [], []
    stripped_spr, default_spr, armed_spr = [], [], []
    for _ in range(repeats):
        spr_stripped, _, items_stripped = _one_run(base_cfg, stripped=True)
        spr_default, result_default, items_default = _one_run(base_cfg, stripped=False)
        spr_armed, result_armed, items_armed = _one_run(armed_cfg, stripped=False)
        stripped_spr.append(spr_stripped)
        default_spr.append(spr_default)
        armed_spr.append(spr_armed)
        default_ratios.append(spr_default / spr_stripped)
        armed_ratios.append(spr_armed / spr_stripped)

    default_ratio = statistics.median(default_ratios)
    armed_ratio = statistics.median(armed_ratios)
    print(
        f"zero-fault overhead: stripped {statistics.median(stripped_spr) * 1e3:.2f} "
        f"ms/round, default gate {default_ratio:.3f}x (ceiling {ceiling:.2f}x), "
        f"armed norm gate {armed_ratio:.3f}x (ceiling {ARMED_CEILING:.2f}x)"
    )
    assert items_default.tobytes() == items_stripped.tobytes(), (
        "the always-on gate changed a clean trajectory; the zero-fault "
        "path must stay bit-identical"
    )
    assert items_armed.tobytes() == items_stripped.tobytes(), (
        "armed-but-idle tolerance changed the trajectory"
    )
    assert not result_default.fault_stats.any_fault
    assert not result_armed.fault_stats.any_fault
    assert default_ratio <= ceiling, (
        f"always-on gate costs {default_ratio:.3f}x per round, "
        f"over the {ceiling:.2f}x ceiling"
    )
    assert armed_ratio <= ARMED_CEILING, (
        f"armed norm gate costs {armed_ratio:.3f}x per round, "
        f"over the {ARMED_CEILING:.2f}x regression ceiling"
    )
    return {
        "stripped_sec_per_round": statistics.median(stripped_spr),
        "default_sec_per_round": statistics.median(default_spr),
        "armed_sec_per_round": statistics.median(armed_spr),
        "default_overhead_ratio": default_ratio,
        "armed_overhead_ratio": armed_ratio,
        "ceiling": ceiling,
        "armed_ceiling": ARMED_CEILING,
    }


def dropout_degradation(scale, rounds, users_per_round) -> list[dict]:
    """ER@K / HR@K versus dropout rate under PIECK-UEA."""
    curve = []
    for rate in DROPOUT_GRID:
        cfg = _config(
            scale,
            rounds,
            users_per_round,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1, mining_rounds=2),
            faults=FaultConfig(dropout_rate=rate),
        )
        sim = FederatedSimulation(cfg)
        result = sim.run()
        assert np.isfinite(sim.model.item_embeddings).all()
        if rate > 0:
            assert result.fault_stats.dropped_uploads > 0
        point = {
            "dropout_rate": rate,
            "er_at_k": result.exposure,
            "hr_at_k": result.hit_ratio,
            "fault_stats": result.fault_stats.to_dict(),
        }
        curve.append(point)
        print(
            f"dropout={rate:.1f}: ER@K={result.exposure:.4f} "
            f"HR@K={result.hit_ratio:.4f} "
            f"(dropped {result.fault_stats.dropped_uploads})"
        )
    return curve


def main() -> None:
    smoke = "--smoke" in sys.argv
    scale, rounds, users_per_round, repeats, ceiling = SMOKE if smoke else FULL
    overhead = overhead_floor(scale, rounds, users_per_round, repeats, ceiling)
    curve = dropout_degradation(scale, rounds, users_per_round)
    path = emit_bench_json(
        "fault_tolerance",
        {
            "mode": "smoke" if smoke else "full",
            "config": {
                "dataset_scale": scale,
                "rounds": rounds,
                "users_per_round": users_per_round,
                "timing_repeats": repeats,
            },
            "zero_fault_overhead": overhead,
            "dropout_degradation": curve,
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
