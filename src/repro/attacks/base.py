"""Malicious-client interface and shared attack utilities.

The attacker model follows Section III-B: malicious clients know the
server learning rate and the model structure, and see the global model
only in rounds where they are sampled. They cannot read benign users'
embeddings, gradients, interactions or popularity levels.

Every attack's round is factored into the same three stages so that
the per-object reference path and the team-level batched path
(:class:`~repro.attacks.cohort.MaliciousCohort`) share one
implementation of the attack math:

1. **participation accounting** — ``_participation_scale`` (object
   path) or the cohort's vectorised ``times_sampled`` counters;
2. **payload** — ``_round_payload`` computes the *unscaled* upload
   (item ids, gradient rows, optional interaction-parameter
   gradients); this is the per-attack hook;
3. **finalise** — the payload is scaled by the participation scale and
   (optionally) norm-clipped; the object path wraps it in a
   :class:`~repro.federated.payload.ClientUpdate`, the cohort splices
   the stacked rows straight into the round's
   :class:`~repro.federated.update_batch.UpdateBatch`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.attacks.mining import PopularItemMiner, RoundSnapshotCache
from repro.config import AttackConfig, TrainConfig
from repro.federated.payload import ClientUpdate
from repro.models.base import RecommenderModel
from repro.stateful import Stateful

__all__ = [
    "AttackPayload",
    "MaliciousClient",
    "PieckClient",
    "delta_as_gradient",
    "bounded_step_gradient",
    "stacked_step_gradients",
    "select_target_items",
]


@dataclass
class AttackPayload:
    """One client's unscaled upload for one round.

    ``item_ids`` / ``item_grads`` are row-aligned; ``param_grads``
    covers the learnable interaction function (DL-FRS only).  The
    participation scale and the optional ``grad_clip`` are applied by
    the caller — the object path in
    :meth:`MaliciousClient.participate`, the batched path in
    :meth:`~repro.attacks.cohort.MaliciousCohort.compute_uploads` —
    so the payload itself is engine-agnostic.
    """

    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)


class MaliciousClient(Stateful, ABC):
    """A malicious user injected by the attacker.

    ``participate`` is called only in rounds where the server samples
    this user; it may return ``None`` to upload nothing (e.g. while the
    PIECK miner is still accumulating Δ-Norm observations).

    Batch-engine contract: uploads must be ordinary
    :class:`ClientUpdate` objects (row-aligned ``item_ids`` /
    ``item_grads`` float64 arrays, unique ids — which
    ``ClientUpdate.__post_init__`` enforces), because the vectorised
    engine splices them verbatim into the round's fused gradient
    scatter at the client's sampled position.  ``participate`` may not
    assume it runs interleaved with benign clients — the batch engine
    runs all malicious participants before the benign tensor pass
    (the global model is frozen within a round, so this is
    order-equivalent) — and must key any per-round randomness on
    ``(seed, user_id, round_idx)`` streams, never on call order.

    Cohort contract: when a team of clients is adopted by a
    :class:`~repro.attacks.cohort.MaliciousCohort`, the cohort owns
    the participation counters and (for PIECK) the mining state; the
    per-attack math still runs through this class's
    :meth:`_round_payload`, so the two paths cannot drift.

    Run state: ``STATE`` names the attributes a subclass's rounds
    mutate (warm-started surrogates, classifiers, miners).
    """

    STATE = ("_times_sampled",)

    def __init__(self, user_id: int, targets: np.ndarray, config: AttackConfig):
        self.user_id = user_id
        self.targets = np.asarray(targets, dtype=np.int64)
        self.config = config
        #: Number of malicious clients controlled by the same attacker
        #: (set by the registry). Known to the attacker by construction.
        self.team_size = 1
        self._times_sampled = 0

    def _participation_scale(self, round_idx: int) -> float:
        """1 / E[co-sampled malicious clients], estimated online.

        When several of the attacker's clients land in the same round,
        their uploads sum at the server; without coordination the target
        overshoots its poisoned optimum by that factor every round and
        oscillates. Each client observes its own sampling rate, knows
        the team size, and scales its upload so the *expected* combined
        push equals one intended step. Uses only attacker-side
        knowledge (Section III-B). Call exactly once per participation.
        """
        self._times_sampled += 1
        rate = self._times_sampled / max(round_idx + 1, 1)
        return 1.0 / max(rate * self.team_size, 1.0)

    # ------------------------------------------------------------------
    # The round template (object path)
    # ------------------------------------------------------------------

    def participate(
        self, model: RecommenderModel, train_cfg: TrainConfig, round_idx: int
    ) -> ClientUpdate | None:
        """Observe the global model and optionally upload poison."""
        scale = self._participation_scale(round_idx)
        if not self._observe_model(model, round_idx):
            return None
        payload = self._round_payload(model, train_cfg, round_idx)
        if payload is None:
            return None
        return self._make_update(
            payload.item_ids,
            scale * payload.item_grads,
            [scale * grad for grad in payload.param_grads],
        )

    def _observe_model(self, model: RecommenderModel, round_idx: int) -> bool:
        """Pre-payload model observation; ``False`` skips the upload.

        The default attacker needs no warm-up; PIECK overrides this
        with the Algorithm 1 mining gate (observe, and upload only
        once the popular set is frozen).
        """
        return True

    @abstractmethod
    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        """The attack's unscaled upload for this round (or ``None``).

        ``popular`` lets the cohort inject the client's mined popular
        set from its struct-of-arrays miner; object-path PIECK clients
        read their own ``self.miner`` when it is ``None``.  Non-mining
        attacks ignore it.
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
        stack.  The kernel is row-wise, and the cohort path uses the
        exact same call per payload, so the two paths are bit-identical
        row for row.
        """
        max_step = self.config.step_norm_factor * reference_norm
        old = model.item_embeddings[self.targets]
        return stacked_step_gradients(
            old, old + np.stack(deltas), server_lr, max_step
        )

    def _make_update(
        self,
        item_ids: np.ndarray,
        item_grads: np.ndarray,
        param_grads: list[np.ndarray] | None = None,
    ) -> ClientUpdate:
        update = ClientUpdate(
            user_id=self.user_id,
            item_ids=item_ids,
            item_grads=item_grads,
            param_grads=param_grads or [],
            malicious=True,
        )
        if self.config.grad_clip > 0:
            update = update.clipped(self.config.grad_clip)
        return update


class PieckClient(MaliciousClient):
    """Shared PIECK machinery: the Algorithm 1 miner and its gate.

    Both PIECK variants first mine the popular set P; ``participate``
    keeps counting participations during mining (the scale estimator
    sees every sampled round) but uploads nothing while the miner is
    still accumulating.  The round whose observation *freezes* P is
    the first attacking round: the gate re-checks readiness after
    observing, so the client proceeds straight to its upload.

    ``snapshots`` is the team-shared :class:`RoundSnapshotCache`: all
    of one attacker's miners observing the same round retain one copy
    of the received item matrix between them.
    """

    STATE = MaliciousClient.STATE + ("miner",)

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        snapshots: RoundSnapshotCache | None = None,
    ):
        super().__init__(user_id, targets, config)
        self.miner = PopularItemMiner(
            num_items, config.mining_rounds, config.num_popular
        )
        self._snapshots = snapshots

    def _observe_model(self, model: RecommenderModel, round_idx: int) -> bool:
        if not self.miner.ready:
            snapshot = (
                self._snapshots.get(model.item_embeddings, round_idx)
                if self._snapshots is not None
                else None
            )
            self.miner.observe(model.item_embeddings, snapshot=snapshot)
        return self.miner.ready

    def _popular_excluding_targets(
        self, popular: np.ndarray | None = None
    ) -> np.ndarray:
        """The mined set P with the attack's own targets removed.

        Falls back to the full mined set when every mined item is a
        target (degenerate catalogues).  ``popular`` overrides the
        object-path miner with a cohort-mined row.
        """
        if popular is None:
            popular = self.miner.popular_items()
        mask = ~np.isin(popular, self.targets)
        filtered = popular[mask]
        return filtered if len(filtered) else popular


def bounded_step_gradient(
    old: np.ndarray, new: np.ndarray, server_lr: float, max_step: float
) -> np.ndarray:
    """Gradient steering ``old`` towards ``new`` by at most ``max_step``.

    Uploading the full jump ``(old - new) / eta`` is unstable: when ``k``
    malicious clients land in the same round their uploads sum and the
    parameter overshoots to ``(1 - k) * old + k * new``, which diverges
    for ``k >= 2``. Capping each client's contribution to a bounded step
    keeps the dynamics stable while many poisonous gradients still
    dominate the count for cold items (Eq. 11).
    """
    delta = new - old
    norm = float(np.linalg.norm(delta))
    if max_step > 0 and norm > max_step:
        delta = delta * (max_step / norm)
    return delta_as_gradient(old, old + delta, server_lr)


def stacked_step_gradients(
    old_rows: np.ndarray,
    new_rows: np.ndarray,
    server_lr: float,
    max_step: float,
) -> np.ndarray:
    """Row-stacked :func:`bounded_step_gradient` in one tensor pass.

    ``old_rows`` / ``new_rows`` are ``(rows, dim)`` stacks of current
    and desired embeddings; every row is clipped and encoded
    independently, so any row-wise restacking (per-target within one
    client, or all sampled clients' targets at once in the cohort
    path) produces identical values — the invariant the object/cohort
    parity suite rests on.  Dispatched through :mod:`repro.kernels`,
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


def delta_as_gradient(old: np.ndarray, new: np.ndarray, server_lr: float) -> np.ndarray:
    """Encode a desired parameter move as an uploadable gradient.

    The server updates ``param <- param - eta * Agg(grads)``; since the
    attacker knows ``eta`` (attacker knowledge item 1 in Section III-B),
    uploading ``(old - new) / eta`` steers the parameter towards ``new``
    when the poisonous gradient dominates the aggregate — which Eq. 11
    shows it does for cold target items.
    """
    if server_lr <= 0:
        raise ValueError("server learning rate must be positive")
    return (old - new) / server_lr


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
