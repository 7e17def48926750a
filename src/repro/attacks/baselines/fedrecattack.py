"""FedRecAttack (Rong et al., ICDE 2022): user embedding approximation
from a public fraction of benign interactions.

The attacker maintains surrogate embeddings for the users whose
interactions it (partially) knows, refits them against the current item
matrix each time it participates, and promotes the target items for the
surrogate users. With the prior knowledge masked — the paper's fair
Table III setting — the "known" interactions are random noise, the
surrogates approximate nobody, and the attack collapses (ER ~ 0).

The surrogate refit warm-starts across rounds (per-client mutable
state), so the cohort runs :meth:`FedRecAttack._round_payload` per
sampled client and batches only the participation scaling and the
final target-step gradient stack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn

__all__ = ["FedRecAttack"]


class FedRecAttack(MaliciousClient):
    """Targeted poisoning via surrogate users fitted on public interactions.

    Parameters
    ----------
    known_interactions:
        One array of item ids per (partially) known benign user. In the
        masked mode the registry passes uniformly random item sets here.
    """

    STATE = ("surrogate_users",)

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        known_interactions: list[np.ndarray],
        *,
        embedding_dim: int,
        fit_steps: int = 5,
        fit_lr: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(user_id, targets, config, num_items)
        if not known_interactions:
            raise ValueError("FedRecAttack needs at least one known user")
        self.known_interactions = known_interactions
        rng = spawn(seed, "fedrecattack-init", user_id)
        self.surrogate_users = rng.normal(
            scale=0.1, size=(len(known_interactions), embedding_dim)
        )
        self.fit_steps = fit_steps
        self.fit_lr = fit_lr
        self._seed = seed

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        self._refit_surrogates(model)
        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._promote(model, old)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)
        reference_norm = float(
            np.mean(np.linalg.norm(self.surrogate_users, axis=1))
        )
        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads)

    # ------------------------------------------------------------------

    def _refit_surrogates(self, model: RecommenderModel) -> None:
        """SGD-fit each surrogate user to its known positive interactions."""
        for row, items in enumerate(self.known_interactions):
            if len(items) == 0:
                continue
            item_vecs = model.item_embeddings[items]
            user = self.surrogate_users[row]
            for _ in range(self.fit_steps):
                user_mat = np.broadcast_to(user, item_vecs.shape).copy()
                logits, cache = model.forward(user_mat, item_vecs)
                dlogits = (sigmoid(logits) - 1.0) / len(logits)
                bundle = model.backward(cache, dlogits)
                user = user - self.fit_lr * bundle.users.sum(axis=0)
            self.surrogate_users[row] = user

    def _promote(self, model: RecommenderModel, start: np.ndarray) -> np.ndarray:
        """Inner-optimise the target embedding to score high for surrogates."""
        vec = start.copy()
        users = self.surrogate_users
        steps = max(self.config.inner_steps, 1)
        reference_norm = float(np.mean(np.linalg.norm(users, axis=1))) + 1e-12
        step_size = self.config.inner_lr * reference_norm / steps
        margin = self.config.promotion_margin
        for _ in range(steps):
            item_vecs = np.broadcast_to(vec, users.shape).copy()
            logits, cache = model.forward(users, item_vecs)
            dlogits = (sigmoid(logits - margin) - 1.0) / len(logits)
            bundle = model.backward(cache, dlogits)
            grad = bundle.items.sum(axis=0)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < 1e-12:
                break
            vec = vec - step_size * grad / grad_norm
        return vec
