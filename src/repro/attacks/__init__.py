"""Targeted model-poisoning attacks against FRS.

The package implements the paper's contribution — PIECK with its two
variants (Sections IV-B to IV-D) — and the four top-tier baselines it
compares against (FedRecAttack, PipAttack, A-ra, A-hum), each with the
"prior knowledge masked" mode used for Table III's fair comparison.

The adversary is one attacker driving a team of malicious clients
(Section III-B).  A run executes it as one :class:`MaliciousCohort`:
built by :func:`build_malicious_cohort` from the attack config, it
owns the team's participation counters and mining state and runs all
sampled members of a round in one batched pass.  Each member (a
:class:`MaliciousClient`) contributes only its payload and its warm
state.
"""

from repro.attacks.base import (
    AttackPayload,
    MaliciousClient,
    PieckClient,
    select_target_items,
    stacked_step_gradients,
)
from repro.attacks.cohort import CohortUpload, MaliciousCohort
from repro.attacks.mining import CohortMiner
from repro.attacks.pieck_ipe import PieckIPE, ipe_loss_and_grad
from repro.attacks.pieck_uea import PieckUEA
from repro.attacks.registry import ATTACK_NAMES, build_malicious_cohort

__all__ = [
    "AttackPayload",
    "MaliciousClient",
    "PieckClient",
    "stacked_step_gradients",
    "select_target_items",
    "CohortMiner",
    "CohortUpload",
    "MaliciousCohort",
    "PieckIPE",
    "PieckUEA",
    "ipe_loss_and_grad",
    "ATTACK_NAMES",
    "build_malicious_cohort",
]
