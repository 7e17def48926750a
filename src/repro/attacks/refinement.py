"""Pseudo-user refinement for PIECK-UEA (Section IV-D, strengthened).

Raw popular-item embeddings approximate user embeddings well while the
FRS trains with the standard sampling ratio (Property 3, Table II), but
the approximation degrades when heavy negative sampling (large ``q``,
supplementary B) pushes *item* embeddings into a different region than
*user* embeddings — the cosine between the mined popular centroid and
the user centroid drops sharply, and poison optimised against raw
popular embeddings then promotes the target in a direction real users
do not occupy.

The refiner closes that gap using only attacker-side knowledge: each
malicious client locally trains a handful of fake user embeddings whose
positives are the mined popular items and whose negatives are sampled
from the remaining items — exactly the local training a benign user who
loves the popular catalogue would run. Because the recommender model is
symmetric, the refined vectors land in the benign-user embedding region
by construction, for MF-FRS and DL-FRS alike (the gradients flow
through :meth:`RecommenderModel.backward`, never through a model-
specific formula).

No prior knowledge is consumed: the positives come from Algorithm 1's
Δ-Norm mining and the procedure runs entirely inside the malicious
client between the rounds it is sampled.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn
from repro.stateful import Stateful

__all__ = ["PseudoUserRefiner"]


class PseudoUserRefiner(Stateful):
    """Locally trained fake user embeddings anchored on mined populars.

    The refiner keeps ``count`` pseudo-user vectors and warm-starts
    them across calls: every :meth:`refine` runs a few BCE steps
    against the *current* global model, so the vectors track the
    drifting item space exactly like a real user's private embedding
    does between rounds.

    Run state: the warm-started vectors and the negative-sampling
    stream's position.  ``popular_ids`` is recorded so a restore can
    rebuild the refiner it belongs to.
    """

    STATE = ("popular_ids", "_vecs")

    def __init__(
        self,
        num_items: int,
        embedding_dim: int,
        popular_ids: np.ndarray,
        *,
        count: int = 8,
        steps: int = 40,
        lr: float = 0.5,
        negative_ratio: int = 4,
        init_scale: float = 0.1,
        seed: int = 0,
    ):
        if count < 1:
            raise ValueError("need at least one pseudo-user")
        if len(popular_ids) == 0:
            raise ValueError("popular_ids must not be empty")
        self.popular_ids = np.asarray(popular_ids, dtype=np.int64)
        self.count = count
        self.steps = max(steps, 1)
        self.lr = lr
        self.negative_ratio = max(negative_ratio, 1)
        self._rng = spawn(seed, "pseudo-user-refiner")
        self._vecs = self._rng.normal(0.0, init_scale, (count, embedding_dim))
        self._negative_pool = np.setdiff1d(
            np.arange(num_items, dtype=np.int64), self.popular_ids
        )
        if len(self._negative_pool) == 0:
            # Degenerate catalogue: every item was mined as popular.
            self._negative_pool = self.popular_ids

    def state(self) -> dict:
        return {**super().state(), "rng": self._rng.bit_generator.state}

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._rng.bit_generator.state = state["rng"]

    @property
    def vectors(self) -> np.ndarray:
        """Current pseudo-user embeddings, shape (count, dim)."""
        return self._vecs.copy()

    def refine(self, model: RecommenderModel) -> np.ndarray:
        """Run warm-started BCE steps against the current global model.

        Positives are the mined popular items (label 1); negatives are a
        fresh sample of ``negative_ratio`` times as many other items
        (label 0), re-drawn per step like a benign client's local
        dataset. Returns the refined pseudo-user matrix.
        """
        num_pos = len(self.popular_ids)
        num_neg = min(
            self.negative_ratio * num_pos, len(self._negative_pool)
        )
        labels = np.concatenate([np.ones(num_pos), np.zeros(num_neg)])
        for _ in range(self.steps):
            negatives = self._rng.choice(
                self._negative_pool, size=num_neg, replace=False
            )
            item_ids = np.concatenate([self.popular_ids, negatives])
            item_vecs = model.item_embeddings[item_ids]
            batch = len(item_ids)
            # One aligned forward/backward over all pseudo-users at once.
            users = np.repeat(self._vecs, batch, axis=0)
            items = np.tile(item_vecs, (self.count, 1))
            logits, cache = model.forward(users, items)
            targets = np.tile(labels, self.count)
            dlogits = (sigmoid(logits) - targets) / batch
            bundle = model.backward(cache, dlogits)
            user_grads = bundle.users.reshape(self.count, batch, -1).sum(axis=1)
            self._vecs = self._vecs - self.lr * user_grads
        return self.vectors
