"""Defended-round throughput: batched UpdateBatch path vs per-client.

Not a paper table — this benchmarks the *defended* server fast path at
production round size (1000 sampled clients, Krum aggregation plus a
NormBound update filter): the configuration class behind the paper's
headline attack-vs-defense experiments (Tables 3-4), and the one that
used to force the batch engine to materialise per-client
``ClientUpdate`` lists.

Both measured variants run the batched *training* half identically;
they differ only in the server hand-off:

* **batched** — the shipping path: the round stays an
  :class:`~repro.federated.UpdateBatch`; the filter runs via
  ``filter_batch`` and Krum via grouped ``aggregate_stacks`` kernels.
* **materialised** — the per-client reference ingestion from
  ``tests/reference/``: per-client updates are rebuilt, the filter
  walks them one by one, and the server groups gradients per item in
  Python dicts.

The headline scenario is the pure defended round (the ``>= 3x``
acceptance floor); a second scenario adds an active PIECK-UEA attack
and is recorded alongside — its full-round ratio is structurally
smaller because the attacker's own (engine-independent) mining and
inner-optimisation cost rides on both variants.

Acceptance: the batched defended path must be >= 3x faster in the
headline scenario and produce bit-identical results.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_defended_throughput.py -s
    PYTHONPATH=src python benchmarks/bench_defended_throughput.py   # standalone
"""

from __future__ import annotations

import time

import numpy as np

from _harness import emit_bench_json
from reference import apply_updates, to_updates
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.datasets.synthetic import generate_longtail_dataset
from repro.defenses.robust import NormBoundFilter
from repro.federated.simulation import FederatedSimulation

USERS_PER_ROUND = 1000
NUM_USERS, NUM_ITEMS, NUM_INTERACTIONS = 4_000, 6_000, 48_000
SPEEDUP_FLOOR = 3.0

#: (name, attacked, floor-enforced) measurement scenarios.
SCENARIOS = (("defended", False, True), ("defended+attacked", True, False))


def _config(attacked: bool) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom"),
        model=ModelConfig(kind="mf", embedding_dim=16),
        train=TrainConfig(rounds=8, users_per_round=USERS_PER_ROUND, lr=1.0),
        attack=(
            AttackConfig(name="pieck_uea", malicious_ratio=0.05)
            if attacked
            else None
        ),
        defense=DefenseConfig(name="krum"),
    )


def _build(dataset, *, attacked: bool, materialised: bool) -> FederatedSimulation:
    sim = FederatedSimulation(_config(attacked), dataset=dataset)
    server = sim.server
    server.update_filter = NormBoundFilter(0.0)
    if materialised:
        # The engine hands the server the same batch; the reference
        # ingests it one per-client update at a time.
        server.apply_batch = lambda batch: apply_updates(server, to_updates(batch))
    return sim


def _measure(sim: FederatedSimulation, rounds: int) -> float:
    """Median seconds/round over ``rounds`` measured rounds (one warm-up)."""
    samples = []
    for round_idx in range(rounds + 1):
        started = time.perf_counter()
        sim.run_round(round_idx)
        samples.append(time.perf_counter() - started)
    return float(np.median(samples[1:]))


def _parity_check(dataset) -> None:
    """Both hand-off paths must agree bit for bit before being timed."""
    batched = _build(dataset, attacked=True, materialised=False)
    reference = _build(dataset, attacked=True, materialised=True)
    for round_idx in range(3):
        batched.run_round(round_idx)
        reference.run_round(round_idx)
    assert np.array_equal(
        batched.model.item_embeddings, reference.model.item_embeddings
    )


def run_defended_throughput() -> tuple[str, dict[str, float], dict]:
    """Benchmark both defended hand-off paths in every scenario.

    Returns ``(report, speedups, json_payload)``.
    """
    dataset = generate_longtail_dataset(
        NUM_USERS, NUM_ITEMS, NUM_INTERACTIONS, seed=0, name="defended-sparse"
    )
    _parity_check(dataset)
    lines = [
        f"Defended-round throughput at {USERS_PER_ROUND} sampled clients/round "
        "(MF dim=16, Krum + NormBound)",
        f"{'scenario':<19} {'path':<13} {'ms/round':>9} {'rounds/sec':>11} {'speedup':>8}",
    ]
    speedups: dict[str, float] = {}
    scenarios_payload: dict[str, dict] = {}
    for name, attacked, _ in SCENARIOS:
        materialised_spr = _measure(
            _build(dataset, attacked=attacked, materialised=True), rounds=5
        )
        batched_spr = _measure(
            _build(dataset, attacked=attacked, materialised=False), rounds=12
        )
        speedups[name] = materialised_spr / batched_spr
        scenarios_payload[name] = {
            "attack": "pieck_uea@0.05" if attacked else "none",
            "materialised_seconds_per_round": materialised_spr,
            "batched_seconds_per_round": batched_spr,
            "batched_rounds_per_sec": 1.0 / batched_spr,
            "speedup": speedups[name],
        }
        for path, spr in (
            ("materialised", materialised_spr),
            ("batched", batched_spr),
        ):
            lines.append(
                f"{name:<19} {path:<13} {spr * 1e3:>9.1f} {1.0 / spr:>11.2f} "
                f"{materialised_spr / spr:>7.2f}x"
            )
    lines.append(
        f"acceptance: defended speedup {speedups['defended']:.2f}x "
        f"(floor {SPEEDUP_FLOOR:.1f}x), bit-identical models"
    )
    payload = {
        "config": {
            "model": "mf",
            "embedding_dim": 16,
            "users_per_round": USERS_PER_ROUND,
            "num_users": NUM_USERS,
            "num_items": NUM_ITEMS,
            "num_interactions": NUM_INTERACTIONS,
            "defense": "krum + norm_bound filter",
        },
        "scenarios": scenarios_payload,
    }
    return "\n".join(lines), speedups, payload


def test_defended_throughput(archive, bench_json):
    report, speedups, payload = run_defended_throughput()
    archive("defended_throughput", report)
    bench_json.update(payload)
    assert speedups["defended"] >= SPEEDUP_FLOOR, report


if __name__ == "__main__":
    report, speedups, payload = run_defended_throughput()
    print(report)
    emit_bench_json("defended_throughput", payload)
    assert speedups["defended"] >= SPEEDUP_FLOOR, (
        f"defended speedup {speedups['defended']:.2f}x below floor"
    )
