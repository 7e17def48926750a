"""A-ra and A-hum (Rong et al., IJCAI 2022): interaction function poisoning.

Both approximate benign users with randomly initialised embeddings and
poison the *learnable interaction function* of DL-FRS to score the
target items high for those users. A-hum additionally mines "hard"
users — gradient-descending the random embeddings to dislike the target
— and also derives item-embedding gradients from them, which is why it
retains partial effectiveness on MF-FRS (Table III) while A-ra, whose
parameters are null there, does not.

The simulated users come from each client's private per-round RNG
stream, so the cohort runs :meth:`ARa._round_payload` per sampled
client and batches only the participation scaling and the final
target-step gradient stack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn

__all__ = ["ARa", "AHum"]


class ARa(MaliciousClient):
    """A-ra: random user approximation + interaction-function poisoning.

    Both the target item embeddings and the interaction parameters are
    poisoned towards high target scores for the *random* approximated
    users. On MF-FRS the parameter branch is null (no learnable
    interaction function) and the item branch promotes towards
    zero-mean random users — which is why Table III shows A-ra
    ineffective there while reaching 100% ER on DL-FRS.
    """

    #: Whether this attack also uploads target item-embedding gradients.
    poison_items = True
    #: Amplification of the uploaded promotion-loss parameter gradients.
    param_grad_scale = 1.0

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        embedding_dim: int,
        num_simulated_users: int = 32,
        seed: int = 0,
    ):
        super().__init__(user_id, targets, config, num_items)
        self.embedding_dim = embedding_dim
        self.num_simulated_users = num_simulated_users
        self._seed = seed

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        rng = spawn(self._seed, "ara", self.user_id, round_idx)
        users = self._simulated_users(model, rng)

        param_grads = self._poison_params(model, users, train_cfg.lr)
        if not self.poison_items:
            if not param_grads:
                return None  # MF-FRS: nothing to poison (null parameters).
            empty = np.empty((0, model.embedding_dim))
            return AttackPayload(np.empty(0, dtype=np.int64), empty, param_grads)

        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._promote_item(model, old, users)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)
        reference_norm = float(np.mean(np.linalg.norm(users, axis=1)))
        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads, param_grads)

    # ------------------------------------------------------------------

    def _simulated_users(
        self, model: RecommenderModel, rng: np.random.Generator
    ) -> np.ndarray:
        """Randomly initialised stand-ins for benign user embeddings."""
        return rng.normal(scale=0.1, size=(self.num_simulated_users, self.embedding_dim))

    def _poison_params(
        self, model: RecommenderModel, users: np.ndarray, server_lr: float
    ) -> list[np.ndarray]:
        """Poisonous interaction-parameter gradients for target promotion.

        Uploads the (amplified) raw gradient of the promotion loss. The
        sigmoid slack makes this self-limiting: once the tower scores
        the targets high for the approximated users the gradients
        vanish, so the poisoning cannot saturate or kill the ReLU tower
        the way unbounded parameter pushes would. MF-FRS has no
        interaction parameters, so this returns an empty list there.
        """
        params = model.interaction_params()
        if not params:
            return []
        margin = self.config.promotion_margin
        totals = [np.zeros_like(p) for p in params]
        for target_vec in model.item_embeddings[self.targets]:
            item_vecs = np.broadcast_to(target_vec, users.shape).copy()
            logits, cache = model.forward(users, item_vecs)
            dlogits = (sigmoid(logits - margin) - 1.0) / len(logits)
            bundle = model.backward(cache, dlogits)
            for total, grad in zip(totals, bundle.params):
                total += grad / len(self.targets)
        return [total * self.param_grad_scale for total in totals]

    def _promote_item(
        self, model: RecommenderModel, start: np.ndarray, users: np.ndarray
    ) -> np.ndarray:
        """Inner-optimise a target item embedding for the simulated users."""
        vec = start.copy()
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


class AHum(ARa):
    """A-hum: A-ra plus hard-user mining and item-embedding poisoning."""

    poison_items = True

    def __init__(self, *args, hard_mining_steps: int = 5, hard_mining_lr: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        self.hard_mining_steps = hard_mining_steps
        self.hard_mining_lr = hard_mining_lr

    def _simulated_users(
        self, model: RecommenderModel, rng: np.random.Generator
    ) -> np.ndarray:
        """Mine hard users: descend random embeddings to dislike the target.

        Users who rate the target poorly produce the strongest promotion
        gradients — the original attack's key refinement over A-ra.
        """
        users = super()._simulated_users(model, rng)
        initial_norms = np.linalg.norm(users, axis=1)
        target_vec = model.item_embeddings[self.targets[0]]
        for _ in range(self.hard_mining_steps):
            item_vecs = np.broadcast_to(target_vec, users.shape).copy()
            logits, cache = model.forward(users, item_vecs)
            # Minimise the raw logit: push each user to dislike the target.
            bundle = model.backward(cache, np.ones_like(logits) / len(logits))
            users = users - self.hard_mining_lr * bundle.users
        # Re-normalise: hard mining should change the users' *direction*,
        # not inflate their magnitude (inflated pseudo-users produce
        # oversized poison gradients that destabilise the tower).
        norms = np.linalg.norm(users, axis=1) + 1e-12
        users = users * (initial_norms / norms)[:, None]
        return users
