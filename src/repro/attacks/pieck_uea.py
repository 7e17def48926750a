"""PIECK-UEA: user embedding approximation (Section IV-D, Algorithm 3).

Property 3: in the symmetric FRS model, mined popular items' embeddings
distribute like user embeddings (validated by PKL/UCR, Table II). UEA
therefore substitutes the popular embeddings for the inaccessible
benign user embeddings in the promotion loss (Eq. 4 -> Eq. 10) and
derives poisonous gradients for the target items through the model's
interaction function. The approximating embeddings are constants —
only target item gradients are uploaded.

Unlike IPE, the UEA round is genuinely per-client: the inner
optimisation draws pseudo-user batches from the client's private
``(seed, "uea", user_id, round_idx)`` stream, and the ``"refined"``
pseudo-user source keeps warm-started per-client fake profiles.  The
cohort path therefore runs :meth:`PieckUEA._round_payload` per sampled
client (with the mined set injected from its struct-of-arrays miner)
and batches only the surrounding stages — mining, participation
scaling, and the final target-step gradient stack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, PieckClient
from repro.attacks.mining import RoundSnapshotCache
from repro.attacks.refinement import PseudoUserRefiner
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn
from repro.stateful import state_of

__all__ = ["PieckUEA"]


class PieckUEA(PieckClient):
    """Algorithm 3: mine P, approximate users with P, promote targets."""

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        seed: int = 0,
        snapshots: RoundSnapshotCache | None = None,
    ):
        super().__init__(user_id, targets, config, num_items, snapshots=snapshots)
        self._seed = seed
        self._num_items = num_items
        self._refiner: PseudoUserRefiner | None = None

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        popular_ids = self._popular_excluding_targets(popular)
        pseudo_users = self._pseudo_users(model, popular_ids)
        reference_norm = float(np.mean(np.linalg.norm(pseudo_users, axis=1)))
        rng = spawn(self._seed, "uea", self.user_id, round_idx)

        popular_vecs = model.item_embeddings[popular_ids]
        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._optimise_target(model, old, pseudo_users, popular_vecs, rng)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)

        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads)

    # ------------------------------------------------------------------

    def _pseudo_users(
        self, model: RecommenderModel, popular_ids: np.ndarray
    ) -> np.ndarray:
        """The user-embedding stand-ins the promotion loss optimises over.

        ``uea_pseudo_source == "popular"`` is Eq. 10 verbatim; the
        default ``"refined"`` locally trains fake user profiles on the
        mined populars (see :mod:`repro.attacks.refinement`), which
        keeps the approximation faithful even when heavy negative
        sampling separates item and user geometry.
        """
        if self.config.uea_pseudo_source == "popular":
            return model.item_embeddings[popular_ids]
        if self._refiner is None:
            self._refiner = self._new_refiner(popular_ids, model.embedding_dim)
        return self._refiner.refine(model)

    def _new_refiner(
        self, popular_ids: np.ndarray, embedding_dim: int
    ) -> PseudoUserRefiner:
        return PseudoUserRefiner(
            self._num_items,
            embedding_dim,
            popular_ids,
            count=self.config.uea_refine_count,
            steps=self.config.uea_refine_steps,
            lr=self.config.uea_refine_lr,
            negative_ratio=self.config.uea_refine_negative_ratio,
            seed=self._seed * 1_000_003 + self.user_id,
        )

    def state(self) -> dict:
        return {**super().state(), "refiner": state_of(self._refiner)}

    def restore(self, state: dict) -> None:
        """Restore the miner and counters, rebuilding a refiner that
        the checkpointed run had already created."""
        super().restore(state)
        saved = state["refiner"]
        self._refiner = None
        if saved is not None:
            self._refiner = self._new_refiner(
                saved["popular_ids"], saved["_vecs"].shape[1]
            )
            self._refiner.restore(saved)

    def _optimise_target(
        self,
        model: RecommenderModel,
        start: np.ndarray,
        pseudo_users: np.ndarray,
        popular_vecs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Inner optimisation of Eq. 10 over batches of pseudo-users.

        Uses normalised gradient steps sized relative to the pseudo-user
        norm scale, so the same attack configuration is effective for
        both MF-FRS and DL-FRS regardless of the interaction function's
        gradient magnitudes (the model-agnostic property of PIECK).
        """
        vec = start.copy()
        reference_norm = float(np.mean(np.linalg.norm(pseudo_users, axis=1)))
        # Re-anchor a previously-poisoned embedding into the pseudo-user
        # norm range; otherwise sigmoid saturation freezes its direction
        # while the popular/user distribution keeps drifting.
        cap = self.config.norm_cap_factor * float(
            np.linalg.norm(pseudo_users, axis=1).max()
        )
        norm = np.linalg.norm(vec)
        if cap > 0 and norm > cap:
            vec *= cap / norm
        # Optimise to convergence: each "round" (inner_steps, the paper's
        # round size) takes several normalised sub-steps, stopping early
        # once the promotion margin is met for the sampled batch. The
        # per-round *upload* is still bounded by the caller, so running
        # the local optimisation to convergence is free for stability.
        steps = max(self.config.inner_steps, 1) * 10
        step_size = 0.15 * reference_norm
        batch_size = min(max(self.config.uea_batch_size, 1), len(pseudo_users))
        margin = self.config.promotion_margin
        if self.config.adaptive_margin:
            # Track the converging FRS: aim above the best score any
            # mined popular item achieves for the pseudo-users.
            popular_logits, _ = model.forward(
                np.repeat(pseudo_users, len(popular_vecs), axis=0),
                np.tile(popular_vecs, (len(pseudo_users), 1)),
            )
            per_item = popular_logits.reshape(len(pseudo_users), len(popular_vecs))
            margin += float(per_item.mean(axis=0).max())
        for _ in range(steps):
            if batch_size < len(pseudo_users):
                rows = rng.choice(len(pseudo_users), size=batch_size, replace=False)
                users = pseudo_users[rows]
            else:
                users = pseudo_users
            item_vecs = np.broadcast_to(vec, users.shape).copy()
            logits, cache = model.forward(users, item_vecs)
            # Eq. 10 penalises every pseudo-user's score, so converge on
            # the worst one — a high *mean* can hide an embedding that
            # points away from a large part of the user distribution.
            if float(logits.min()) >= margin:
                break
            # d/d logit of -mean log sigmoid(logit - margin); labels are 1.
            dlogits = (sigmoid(logits - margin) - 1.0) / len(logits)
            bundle = model.backward(cache, dlogits)
            grad = bundle.items.sum(axis=0)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < 1e-12:
                break
            vec = vec - step_size * grad / grad_norm
        return vec
