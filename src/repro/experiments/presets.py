"""Tuned experiment presets for the reproduction harness.

Scale-downs and hyper-parameters were tuned once (see DESIGN.md) so the
*shape* of every table/figure reproduces on one machine in minutes:

* datasets keep the paper's user-item density (sparsity, Table VIII);
* MF-FRS trains with the paper's server rate eta = 1.0;
* DL-FRS uses a rate tuned for the scaled data (the paper's 0.005 is
  tied to its full-size batches);
* on DL-FRS the client-side defense additionally applies Re2 at the
  interaction-function level (see
  :func:`repro.defenses.regularization.tower_grad_terms`).
"""

from __future__ import annotations

from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)

__all__ = [
    "EXPERIMENT_SCALES",
    "dataset_config",
    "model_config",
    "train_config",
    "attack_config",
    "defense_config",
    "experiment",
]

#: Default linear scale-down per dataset (users and items multiply by
#: this; interactions by its square to preserve density).
EXPERIMENT_SCALES: dict[str, float] = {
    "ml-100k": 0.2,
    "ml-1m": 0.06,
    "az": 0.06,
}

#: Communication rounds per base model at the preset scales.
_ROUNDS = {"mf": 120, "ncf": 200}
#: Users sampled per round, per dataset (AZ has ~5x the users).
_USERS_PER_ROUND = {"ml-100k": 64, "ml-1m": 96, "az": 160}
#: Server learning rate per base model.
_SERVER_LR = {"mf": 1.0, "ncf": 0.05}
#: Re2 trade-off gamma per base model for the regularization defense.
_DEFENSE_GAMMA = {"mf": 0.5, "ncf": 0.5}


def dataset_config(name: str, *, scale: float | None = None, seed: int = 0) -> DatasetConfig:
    """Dataset preset at its tuned experiment scale."""
    if scale is None:
        scale = EXPERIMENT_SCALES.get(name, 0.2)
    return DatasetConfig(name=name, scale=scale, seed=seed)


def model_config(kind: str, *, embedding_dim: int = 16, seed: int = 0) -> ModelConfig:
    """Base model preset (MF-FRS or DL-FRS)."""
    return ModelConfig(kind=kind, embedding_dim=embedding_dim, seed=seed)


def train_config(
    kind: str,
    *,
    rounds: int | None = None,
    users_per_round: int = 64,
    eval_every: int = 0,
    **overrides,
) -> TrainConfig:
    """Training preset tuned per base model."""
    if kind not in _ROUNDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return TrainConfig(
        rounds=_ROUNDS[kind] if rounds is None else rounds,
        users_per_round=users_per_round,
        lr=_SERVER_LR[kind],
        eval_every=eval_every,
        **overrides,
    )


def attack_config(name: str, *, malicious_ratio: float = 0.05, **overrides) -> AttackConfig:
    """Attack preset: the paper's default 5% malicious users."""
    return AttackConfig(name=name, malicious_ratio=malicious_ratio, **overrides)


def defense_config(name: str, model_kind: str = "mf", **overrides) -> DefenseConfig:
    """Defense preset; gamma is tuned per base model (Section V-B)."""
    if name in ("regularization", "hybrid") and "gamma" not in overrides:
        overrides["gamma"] = _DEFENSE_GAMMA.get(model_kind, 0.5)
    return DefenseConfig(name=name, **overrides)


def experiment(
    dataset: str,
    model_kind: str,
    *,
    attack: str | AttackConfig | None = None,
    defense: str | DefenseConfig = "none",
    seed: int = 0,
    rounds: int | None = None,
    eval_every: int = 0,
    **train_overrides,
) -> ExperimentConfig:
    """Assemble a full experiment config from presets.

    ``attack`` / ``defense`` accept either a preset name or a fully
    custom config object.
    """
    if isinstance(attack, str):
        attack = None if attack == "none" else attack_config(attack)
    if isinstance(defense, str):
        defense = defense_config(defense, model_kind)
    train_overrides.setdefault(
        "users_per_round", _USERS_PER_ROUND.get(dataset, 64)
    )
    return ExperimentConfig(
        dataset=dataset_config(dataset, seed=seed),
        model=model_config(model_kind, seed=seed),
        train=train_config(
            model_kind, rounds=rounds, eval_every=eval_every, **train_overrides
        ),
        attack=attack,
        defense=defense,
        seed=seed,
    )
