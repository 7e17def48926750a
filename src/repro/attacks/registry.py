"""Attack registry: build the attacker's team by name.

A run's adversary is one :class:`~repro.attacks.cohort.MaliciousCohort`:
the attacker and its whole team of malicious clients, built from the
:class:`~repro.config.AttackConfig` and executed in one batched pass a
round.
"""

from __future__ import annotations

from repro.attacks.cohort import MaliciousCohort

__all__ = [
    "ATTACK_NAMES",
    "build_malicious_cohort",
    "num_malicious_for_ratio",
]

#: All attacks runnable by name ("none" means no malicious users).
ATTACK_NAMES = (
    "none",
    "fedrecattack",
    "pipattack",
    "a_ra",
    "a_hum",
    "pieck_ipe",
    "pieck_uea",
)


def num_malicious_for_ratio(num_benign: int, ratio: float) -> int:
    """Malicious user count so that |U-tilde| / |U| equals ``ratio``.

    The paper's p-tilde is measured against the *total* user population
    (benign + injected), hence the ``ratio / (1 - ratio)`` conversion.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError("malicious ratio must lie in [0, 1)")
    if ratio == 0.0:
        return 0
    return max(1, int(round(num_benign * ratio / (1.0 - ratio))))


def build_malicious_cohort(name: str, **kwargs) -> MaliciousCohort | None:
    """The named attacker with its team, or ``None`` without one.

    Accepts the keyword arguments of
    :class:`~repro.attacks.cohort.MaliciousCohort`; returns ``None``
    for ``name="none"`` or ``num_malicious=0``.
    """
    if name not in ATTACK_NAMES:
        raise ValueError(f"unknown attack {name!r}; expected one of {ATTACK_NAMES}")
    if name == "none" or kwargs["num_malicious"] == 0:
        return None
    return MaliciousCohort(name, **kwargs)
