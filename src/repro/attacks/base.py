"""Malicious-client interface and shared attack utilities.

The attacker model follows Section III-B: malicious clients know the
server learning rate and the model structure, and see the global model
only in rounds where they are sampled. They cannot read benign users'
embeddings, gradients, interactions or popularity levels.

One attacker drives the whole malicious team, and the package runs
that team as one :class:`~repro.attacks.cohort.MaliciousCohort`.  The
cohort owns the team's participation counters and, for PIECK, its
Algorithm 1 miner; it scales, clips and stacks every upload.  What a
:class:`MaliciousClient` keeps is what differs per member: the
attack's payload (:meth:`MaliciousClient._round_payload`) and the
warm state that payload reads and advances (surrogates, classifiers,
refiners).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.stateful import Stateful

__all__ = [
    "AttackPayload",
    "MaliciousClient",
    "PieckClient",
    "stacked_step_gradients",
    "select_target_items",
]


@dataclass
class AttackPayload:
    """One client's unscaled upload for one round.

    ``item_ids`` / ``item_grads`` are row-aligned; ``param_grads``
    covers the learnable interaction function (DL-FRS only).  The
    cohort applies the participation scale and the optional
    ``grad_clip``
    (:meth:`~repro.attacks.cohort.MaliciousCohort.compute_uploads`).
    """

    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)


class MaliciousClient(Stateful, ABC):
    """One member of the attacker's team.

    :meth:`_round_payload` must key any per-round randomness on
    ``(seed, user_id, round_idx)`` streams, never on call order: the
    cohort runs a round's members before the benign tensor pass, in
    any grouping.  ``STATE`` names the attributes a subclass's rounds
    mutate (warm-started surrogates, classifiers); the cohort's own
    state carries them.
    """

    def __init__(
        self, user_id: int, targets: np.ndarray, config: AttackConfig, num_items: int
    ):
        self.user_id = user_id
        self.targets = np.asarray(targets, dtype=np.int64)
        self.config = config
        self.num_items = num_items

    @abstractmethod
    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        """The attack's unscaled upload for this round (or ``None``).

        ``popular`` is the member's mined popular set, most popular
        first (PIECK only; other attacks ignore it).
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _targets_to_train(self) -> np.ndarray:
        """Targets whose deltas are derived this round (supp. C).

        Under ``"one_then_copy"`` only the first target is optimised;
        :meth:`_expand_deltas` replicates its delta across the rest.
        """
        if self.config.multi_target_strategy == "one_then_copy":
            return self.targets[:1]
        return self.targets

    def _expand_deltas(self, deltas: list[np.ndarray]) -> list[np.ndarray]:
        """Complete the per-target delta list for ``one_then_copy``."""
        if self.config.multi_target_strategy == "one_then_copy":
            return [deltas[0]] * len(self.targets)
        return deltas

    def _target_step_gradients(
        self,
        model: RecommenderModel,
        deltas: list[np.ndarray],
        server_lr: float,
        reference_norm: float,
    ) -> np.ndarray:
        """Stack bounded-step gradients steering each target by its delta.

        One :func:`stacked_step_gradients` call over the whole target
        stack; the kernel is row-wise, so a row's bytes do not depend
        on the stack around it.
        """
        max_step = self.config.step_norm_factor * reference_norm
        old = model.item_embeddings[self.targets]
        return stacked_step_gradients(
            old, old + np.stack(deltas), server_lr, max_step
        )


class PieckClient(MaliciousClient):
    """Shared PIECK machinery: the mined set P minus the own targets.

    Both PIECK variants upload only once their popular set is mined;
    the cohort's :class:`~repro.attacks.mining.CohortMiner` mines it
    and hands each member its row as ``popular``.
    """

    def _popular_excluding_targets(self, popular: np.ndarray) -> np.ndarray:
        """The mined set P with the attack's own targets removed.

        Falls back to the full mined set when every mined item is a
        target (degenerate catalogues).
        """
        return popular_excluding_targets([popular], self.targets)[0]


def popular_excluding_targets(
    popular: list[np.ndarray], targets: np.ndarray
) -> list[np.ndarray]:
    """Each mined set in ``popular`` with ``targets`` removed, by one
    ``isin`` over the stacked sets.

    A set whose every item is a target is kept whole (degenerate
    catalogues).
    """
    keep = ~np.isin(np.concatenate(popular), targets)
    masks = np.split(keep, np.cumsum([len(p) for p in popular])[:-1])
    return [p[mask] if mask.any() else p for p, mask in zip(popular, masks)]


def stacked_step_gradients(
    old_rows: np.ndarray,
    new_rows: np.ndarray,
    server_lr: float,
    max_step: float,
) -> np.ndarray:
    """Gradients steering each row of ``old_rows`` towards ``new_rows``.

    The server updates ``param <- param - eta * Agg(grads)``; since the
    attacker knows ``eta`` (attacker knowledge item 1 in Section
    III-B), uploading ``(old - new) / eta`` steers a parameter towards
    ``new`` when the poisonous gradient dominates the aggregate, which
    Eq. 11 shows it does for cold target items.  The full jump is
    unstable: when ``k`` malicious clients land in the same round their
    uploads sum and the parameter overshoots to ``(1 - k) * old + k *
    new``.  So each row's move ``new - old`` is first capped at norm
    ``max_step`` (``max_step <= 0`` disables the cap).

    ``old_rows`` / ``new_rows`` are ``(rows, dim)`` stacks of current
    and desired embeddings; every row is clipped and encoded
    independently, so any row-wise restacking (per-target within one
    client, or all sampled clients' targets at once in the cohort
    path) produces identical values — the invariant the cohort parity
    suite rests on.  Dispatched through :mod:`repro.kernels`,
    whose contract accumulates each row's squared components
    sequentially over the feature axis — a per-row order independent
    of the surrounding stack (unlike NumPy's 1-D ``linalg.norm``
    BLAS-dot fast path) that the native port replays exactly.
    """
    if server_lr <= 0:
        raise ValueError("server learning rate must be positive")
    return kernels.stacked_step_gradients(
        old_rows, new_rows, server_lr, max_step
    )


def select_target_items(
    dataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Randomly pick cold target items, following FedRecAttack's protocol.

    The paper samples targets from the *uninteracted* items so that
    comparisons are fair; we sample among zero-popularity items and fall
    back to the coldest tail when every item has interactions.
    """
    popularity = dataset.popularity()
    cold = np.flatnonzero(popularity == 0)
    if len(cold) >= count:
        return np.sort(rng.choice(cold, size=count, replace=False))
    tail = dataset.coldest_items(max(count * 4, count))
    return np.sort(rng.choice(tail, size=count, replace=False))
