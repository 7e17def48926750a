"""PipAttack (Zhang et al., WSDM 2022): popularity-level enhancement.

PipAttack assumes the attacker knows items' popularity levels. It
trains a popularity classifier on the current item embeddings and
poisons the target items towards the "popular" class, plus an explicit
promotion term for the attacker's own (malicious) user embedding.
With the popularity prior masked (random labels — the paper's fair
Table III setting) the classifier learns noise and the popularity
alignment carries no signal.

The classifier warm-starts across rounds and the masked labels differ
per client, so the cohort runs :meth:`PipAttack._round_payload`
per sampled client and batches only the participation scaling and the
final target-step gradient stack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn

__all__ = ["PipAttack"]


class PipAttack(MaliciousClient):
    """Popularity-classifier-guided target promotion.

    Parameters
    ----------
    popularity_labels:
        Binary per-item labels (1 = popular). True top-15% labels in the
        with-prior mode; a random permutation of them in masked mode.
    """

    STATE = ("_weights", "_bias")

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        popularity_labels: np.ndarray,
        *,
        embedding_dim: int,
        classifier_epochs: int = 20,
        classifier_lr: float = 0.5,
        promotion_weight: float = 0.3,
        seed: int = 0,
    ):
        super().__init__(user_id, targets, config, num_items)
        labels = np.asarray(popularity_labels, dtype=np.float64)
        if labels.shape != (num_items,):
            raise ValueError("popularity_labels must have one entry per item")
        self.labels = labels
        self.classifier_epochs = classifier_epochs
        self.classifier_lr = classifier_lr
        self.promotion_weight = promotion_weight
        rng = spawn(seed, "pipattack-init", user_id)
        self.own_embedding = rng.normal(scale=0.1, size=embedding_dim)
        self._weights = np.zeros(embedding_dim)
        self._bias = 0.0

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        self._fit_classifier(model.item_embeddings)
        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._poison_target(model, old)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)
        reference_norm = float(
            np.mean(np.linalg.norm(model.item_embeddings, axis=1))
        )
        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads)

    # ------------------------------------------------------------------

    def _fit_classifier(self, item_matrix: np.ndarray) -> None:
        """Logistic-regression popularity estimator on item embeddings."""
        w = self._weights
        b = self._bias
        n = len(item_matrix)
        for _ in range(self.classifier_epochs):
            probs = sigmoid(item_matrix @ w + b)
            error = (probs - self.labels) / n
            w = w - self.classifier_lr * (item_matrix.T @ error)
            b = b - self.classifier_lr * float(error.sum())
        self._weights = w
        self._bias = b

    def _poison_target(self, model: RecommenderModel, start: np.ndarray) -> np.ndarray:
        """Push the target towards the popular class + explicit promotion."""
        vec = start.copy()
        steps = max(self.config.inner_steps, 1)
        reference_norm = (
            float(np.mean(np.linalg.norm(model.item_embeddings, axis=1))) + 1e-12
        )
        step_size = self.config.inner_lr * reference_norm / steps
        margin = self.config.promotion_margin
        for _ in range(steps):
            # Popularity-alignment: ascend log P(popular | vec).
            prob = sigmoid(np.array([vec @ self._weights + self._bias]))[0]
            pop_grad = -(1.0 - prob) * self._weights

            # Explicit promotion for the attacker's own embedding.
            item_vec = vec[None, :]
            logits, cache = model.forward(self.own_embedding[None, :], item_vec)
            dlogits = sigmoid(logits - margin) - 1.0
            bundle = model.backward(cache, dlogits)
            promo_grad = bundle.items[0]

            grad = pop_grad + self.promotion_weight * promo_grad
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < 1e-12:
                break
            vec = vec - step_size * grad / grad_norm
        return vec
