"""MF-FRS: matrix factorisation with a fixed dot-product interaction.

``logit(u, v) = u . v`` (the paper's Psi_MF); the predicted score is
``sigmoid(logit)``. The interaction function has no learnable
parameters, which is exactly why interaction-function poisoning
attacks (A-ra / A-hum's parameter branch) are inert against MF-FRS.

Being parameter-free also means MF-FRS needs no override of
:meth:`~repro.models.base.RecommenderModel.batch_local_step`: the base
class's generic row-stacked implementation (einsum dot products are
independent per row) already runs a whole round of clients in one
vectorised pass, bit-identical to the per-client loop.

Its scores being dot products, MF-FRS evaluates by an exact pruned
walk (:meth:`MFModel.ranking_counts`): ``|u| * |v|`` bounds every
score, so items visited in descending norm stop mattering early.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.metrics.ranking import NormOrderedItems, walk_block_counts
from repro.models.base import GradientBundle, RecommenderModel
from repro.rng import spawn

__all__ = ["MFModel"]

class MFModel(RecommenderModel):
    """Matrix-factorisation global model: just the item embedding table."""

    kind = "mf"

    def __init__(
        self,
        num_items: int,
        embedding_dim: int,
        *,
        init_scale: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(num_items, embedding_dim)
        rng = spawn(seed, "mf-init")
        self.item_embeddings = rng.normal(
            scale=init_scale, size=(num_items, embedding_dim)
        )

    def forward(
        self, user_vecs: np.ndarray, item_vecs: np.ndarray
    ) -> tuple[np.ndarray, Any]:
        users = self._pair_user_vecs(user_vecs, item_vecs)
        logits = np.einsum("nd,nd->n", users, item_vecs)
        return logits, (users, item_vecs)

    def backward(self, cache: Any, dlogits: np.ndarray) -> GradientBundle:
        users, items = cache
        dusers = dlogits[:, None] * items
        ditems = dlogits[:, None] * users
        return GradientBundle(users=dusers, items=ditems, params=[])

    def item_grads(self, cache: Any, dlogits: np.ndarray) -> np.ndarray:
        """The item half of :meth:`backward` alone, the same bytes."""
        users, _ = cache
        return dlogits[:, None] * users

    def score_matrix(self, user_matrix: np.ndarray) -> np.ndarray:
        return user_matrix @ self.item_embeddings.T

    def ranking_counts(self, user_matrix, block_users: int, tally) -> None:
        """ER@K and HR@K counts by the pruned walk
        (:func:`~repro.metrics.ranking.walk_block_counts` over a
        :class:`~repro.metrics.ranking.NormOrderedItems` table, through
        :meth:`_walked_counts`)."""
        self._walked_counts(
            user_matrix,
            block_users,
            tally,
            lambda: NormOrderedItems(self.item_embeddings),
            walk_block_counts,
        )
