"""Native kernel backend round throughput: ``kernels="native"`` vs numpy.

Not a paper table — this benchmarks the compiled kernel backend
(:mod:`repro.kernels`, ROADMAP item 1) on
``bench_engine_throughput``-style rounds: 1000 sampled clients per
round against a 4k-user / 6k-item long-tail catalogue.  Both variants
run the *same* batch engine; they differ only in the backend the six
dispatched hot kernels resolve to.

Three scenarios are measured:

* **defended** — MultiKrum aggregation at ``dim=64``: kernel-dominated
  rounds (pairwise distances, segment sums, scatter) with the most
  machine-stable numpy/native ratio.  This is the floor-enforced
  scenario.
* **defended+attacked** — Krum under an active PIECK-UEA attack at
  ``dim=64``: the paper's headline attack-vs-defense configuration
  class, additionally exercising the stacked attack gradients and
  mining-ledger norms.
* **undefended** — plain ``dim=16`` rounds, recorded for context: the
  undefended round is dominated by RNG sampling and negative-sample
  generation, which are *not* dispatched kernels (they stay on shared
  NumPy code in both backends), so its ratio is structurally ~1x.

Acceptance: the native backend must be >= 2x faster in the
floor-enforced scenario, bit-identical (spot-checked over the first rounds before
timing), and must not have fallen back to numpy silently — zero
``kernel_fallback_rounds`` on every engine and zero counted
``fallback_calls`` on the backend.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_native_kernels.py -s
    PYTHONPATH=src python benchmarks/bench_native_kernels.py   # standalone
"""

from __future__ import annotations

import time

import numpy as np

from _harness import emit_bench_json
from repro import kernels
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.simulation import FederatedSimulation

USERS_PER_ROUND = 1000
NUM_USERS, NUM_ITEMS, NUM_INTERACTIONS = 4_000, 6_000, 48_000
SPEEDUP_FLOOR = 2.0

#: (name, defense, attack, dim, floor-enforced) measurement scenarios.
#: The floor is enforced on the pure defended round (its ratio is the
#: most stable across machines); the attacked round also clears 2x but
#: carries the attacker's engine-independent inner-optimisation cost on
#: both backends, so it is recorded without gating CI on its variance.
SCENARIOS = (
    ("defended", "multi_krum", None, 64, True),
    ("defended+attacked", "krum", "pieck_uea", 64, False),
    ("undefended", "none", None, 16, False),
)


def _config(backend: str, defense: str, attack: str | None, dim: int):
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom"),
        model=ModelConfig(kind="mf", embedding_dim=dim),
        train=TrainConfig(
            rounds=12, users_per_round=USERS_PER_ROUND, lr=1.0, kernels=backend
        ),
        attack=(
            AttackConfig(name=attack, malicious_ratio=0.05) if attack else None
        ),
        defense=DefenseConfig(name=defense),
    )


def _build(dataset, backend: str, defense: str, attack, dim) -> FederatedSimulation:
    return FederatedSimulation(
        _config(backend, defense, attack, dim), dataset=dataset
    )


def _measure(sim: FederatedSimulation, rounds: int) -> float:
    """Median seconds/round over ``rounds`` measured rounds (one warm-up)."""
    samples = []
    for round_idx in range(rounds + 1):
        started = time.perf_counter()
        sim.run_round(round_idx)
        samples.append(time.perf_counter() - started)
    return float(np.median(samples[1:]))


def _assert_no_fallbacks(sim: FederatedSimulation) -> None:
    engine = sim._batch_engine
    if engine is not None and engine.kernel_fallback_rounds:
        raise AssertionError(
            "native backend silently fell back to numpy in "
            f"{engine.kernel_fallback_rounds} rounds"
        )


def _parity_check(dataset) -> None:
    """Both backends must agree bit for bit before being timed.

    Spot-checked on the attacked+defended scenario — the only one that
    exercises every dispatched kernel (pairwise distances, segment
    sums/divs, scatter, stacked attack gradients, mining norms) in a
    single round.
    """
    name, defense, attack, dim, _ = next(
        s for s in SCENARIOS if s[2] is not None
    )
    sims = {
        backend: _build(dataset, backend, defense, attack, dim)
        for backend in ("numpy", "native")
    }
    for round_idx in range(3):
        for sim in sims.values():
            sim.run_round(round_idx)
    assert np.array_equal(
        sims["native"].model.item_embeddings,
        sims["numpy"].model.item_embeddings,
    ), f"backend parity broken on {name}"
    _assert_no_fallbacks(sims["native"])


def run_native_kernels() -> tuple[str, dict[str, float], dict]:
    """Benchmark both kernel backends in every scenario.

    Returns ``(report, speedups, json_payload)``.
    """
    dataset = generate_longtail_dataset(
        NUM_USERS, NUM_ITEMS, NUM_INTERACTIONS, seed=0, name="kernels-sparse"
    )
    native = kernels.resolve("native")  # raises if the toolchain is missing
    _parity_check(dataset)
    fallback_calls_before = native.fallback_calls
    lines = [
        f"Kernel-backend round throughput at {USERS_PER_ROUND} sampled "
        "clients/round (MF, batch engine)",
        f"{'scenario':<19} {'backend':<8} {'ms/round':>9} {'rounds/sec':>11} "
        f"{'speedup':>8}",
    ]
    speedups: dict[str, float] = {}
    scenarios_payload: dict[str, dict] = {}
    for name, defense, attack, dim, _ in SCENARIOS:
        timings: dict[str, float] = {}
        for backend in ("numpy", "native"):
            sim = _build(dataset, backend, defense, attack, dim)
            timings[backend] = _measure(sim, rounds=10)
            if backend == "native":
                _assert_no_fallbacks(sim)
        speedups[name] = timings["numpy"] / timings["native"]
        scenarios_payload[name] = {
            "defense": defense,
            "attack": f"{attack}@0.05" if attack else "none",
            "embedding_dim": dim,
            "numpy_seconds_per_round": timings["numpy"],
            "native_seconds_per_round": timings["native"],
            "native_rounds_per_sec": 1.0 / timings["native"],
            "speedup": speedups[name],
        }
        for backend in ("numpy", "native"):
            spr = timings[backend]
            lines.append(
                f"{name:<19} {backend:<8} {spr * 1e3:>9.1f} "
                f"{1.0 / spr:>11.2f} {timings['numpy'] / spr:>7.2f}x"
            )
    if native.fallback_calls != fallback_calls_before:
        raise AssertionError(
            "native backend served "
            f"{native.fallback_calls - fallback_calls_before} dispatched "
            "calls through counted numpy fallbacks during timing"
        )
    enforced = [name for name, _, _, _, gate in SCENARIOS if gate]
    lines.append(
        "acceptance: "
        + ", ".join(f"{n} speedup {speedups[n]:.2f}x" for n in enforced)
        + f" (floor {SPEEDUP_FLOOR:.1f}x), bit-identical, zero fallbacks"
    )
    payload = {
        "config": {
            "model": "mf",
            "users_per_round": USERS_PER_ROUND,
            "num_users": NUM_USERS,
            "num_items": NUM_ITEMS,
            "num_interactions": NUM_INTERACTIONS,
        },
        "scenarios": scenarios_payload,
        "kernel_fallback_rounds": 0,
        "native_fallback_calls": 0,
    }
    return "\n".join(lines), speedups, payload


def test_native_kernels(archive, bench_json):
    report, speedups, payload = run_native_kernels()
    archive("native_kernels", report)
    bench_json.update(payload)
    for name, _, _, _, gate in SCENARIOS:
        if gate:
            assert speedups[name] >= SPEEDUP_FLOOR, report


if __name__ == "__main__":
    report, speedups, payload = run_native_kernels()
    print(report)
    emit_bench_json("native_kernels", payload)
    for scenario_name, _, _, _, gate in SCENARIOS:
        if gate:
            assert speedups[scenario_name] >= SPEEDUP_FLOOR, (
                f"native speedup {speedups[scenario_name]:.2f}x below floor"
            )
