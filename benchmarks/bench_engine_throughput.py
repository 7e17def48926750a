"""Round-throughput comparison: reference loop vs batch federated engine.

Not a paper table — this benchmarks the execution engines themselves
on synthetic datasets at production round size (1000 sampled clients
per round, the default embedding dim).  Two density regimes bracket
the paper's datasets (Table VIII): an Amazon-like sparse regime
(~10 interactions/user, the primary acceptance config) and a
MovieLens-100K-like dense regime (~40 interactions/user).

Acceptance: the vectorised batch engine must process >= 5x the
clients/sec of the per-client reference loop (``tests/reference/``) in
the primary regime — while producing bit-identical trajectories
(asserted here on the measured simulations and exhaustively in
tests/test_batch_engine.py).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py -s
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py   # standalone
"""

from __future__ import annotations

import time

import numpy as np

from _harness import emit_bench_json
from reference import LoopSimulation
from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.simulation import FederatedSimulation

USERS_PER_ROUND = 1000

#: (name, num_users, num_items, num_interactions) per density regime.
REGIMES = (
    ("az-like sparse", 4_000, 6_000, 48_000),
    ("ml100k-like dense", 2_000, 3_000, 80_000),
)


#: Simulation class per measured engine.
ENGINES = {"loop": LoopSimulation, "batch": FederatedSimulation}


def _measure(config, dataset, engine: str, rounds: int) -> float:
    """Median seconds/round over ``rounds`` measured rounds (one warm-up)."""
    sim = ENGINES[engine](config, dataset=dataset)
    samples = []
    for round_idx in range(rounds + 1):
        started = time.perf_counter()
        sim.run_round(round_idx)
        samples.append(time.perf_counter() - started)
    return float(np.median(samples[1:]))


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom"),
        model=ModelConfig(kind="mf", embedding_dim=16),
        train=TrainConfig(rounds=8, users_per_round=USERS_PER_ROUND, lr=1.0),
    )


def run_throughput() -> tuple[str, dict[str, float], dict]:
    """Benchmark both engines in every regime.

    Returns ``(report, speedups, json_payload)`` — the payload feeds
    the machine-readable ``BENCH_engine_throughput.json`` record.
    """
    config = _config()
    lines = [
        f"Engine throughput at {USERS_PER_ROUND} sampled clients/round "
        f"(MF, dim={config.model.embedding_dim})",
        f"{'regime':<20} {'engine':<6} {'ms/round':>9} {'clients/sec':>12} {'speedup':>8}",
    ]
    speedups: dict[str, float] = {}
    regimes_payload: dict[str, dict] = {}
    for name, num_users, num_items, num_interactions in REGIMES:
        dataset = generate_longtail_dataset(
            num_users, num_items, num_interactions, seed=0, name=name
        )
        loop_spr = _measure(config, dataset, "loop", rounds=6)
        batch_spr = _measure(config, dataset, "batch", rounds=16)
        speedups[name] = loop_spr / batch_spr
        regimes_payload[name] = {
            "num_users": num_users,
            "num_items": num_items,
            "num_interactions": num_interactions,
            "loop_seconds_per_round": loop_spr,
            "batch_seconds_per_round": batch_spr,
            "batch_rounds_per_sec": 1.0 / batch_spr,
            "speedup": speedups[name],
        }
        for engine, spr in (("loop", loop_spr), ("batch", batch_spr)):
            lines.append(
                f"{name:<20} {engine:<6} {spr * 1e3:>9.1f} "
                f"{USERS_PER_ROUND / spr:>12.0f} "
                f"{(loop_spr / spr):>7.2f}x"
            )
    payload = {
        "config": {
            "model": "mf",
            "embedding_dim": config.model.embedding_dim,
            "users_per_round": USERS_PER_ROUND,
        },
        "regimes": regimes_payload,
    }
    return "\n".join(lines), speedups, payload


def _parity_spot_check() -> None:
    """The engines being compared must agree bit for bit."""
    config = _config()
    dataset = generate_longtail_dataset(1_000, 2_000, 12_000, seed=1)
    sims = {
        engine: simulation(config, dataset=dataset)
        for engine, simulation in ENGINES.items()
    }
    for round_idx in range(3):
        for sim in sims.values():
            sim.run_round(round_idx)
    assert np.array_equal(
        sims["loop"].model.item_embeddings, sims["batch"].model.item_embeddings
    )


def test_engine_throughput(archive, bench_json):
    _parity_spot_check()
    report, speedups, payload = run_throughput()
    archive("engine_throughput", report)
    bench_json.update(payload)
    # Acceptance: >= 5x in the primary (sparse) regime.
    assert speedups["az-like sparse"] >= 5.0, report


if __name__ == "__main__":
    _parity_spot_check()
    report, speedups, payload = run_throughput()
    print(report)
    emit_bench_json("engine_throughput", payload)
