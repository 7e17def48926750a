"""The paper's client-side regularization defense (Section V-B).

Each *benign* client mines popular items itself (the same Algorithm 1
the attacker uses) and trains with the combined loss of Eq. 16:

``L_def = L_i - beta * Re1 - gamma * Re2``

* **Re1** (Eq. 14) is the kappa'-weighted mean cosine similarity
  between the client's unpopular local items and the mined popular
  items. Maximising it blurs the distinction between popular and
  unpopular item features, so PIECK-IPE can no longer counterfeit a
  target as distinctly "popular" (counters finding F2).
* **Re2** (Eq. 15) is the kappa'-weighted KL divergence between the
  mined popular item embeddings and the user embedding. Maximising it
  separates the user-embedding distribution from the popular-item
  distribution, so PIECK-UEA's approximation becomes inaccurate
  (counters finding F3).

Minimising ``L_def`` therefore *maximises* both terms, while the
original loss term preserves recommendation quality.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.mining import PopularItemMiner
from repro.config import DefenseConfig
from repro.metrics.divergence import softmax
from repro.models.losses import sigmoid
from repro.stateful import Stateful

__all__ = ["ClientRegularizer", "exponential_rank_weights", "re1_value", "re2_value"]

_EPS = 1e-12


def exponential_rank_weights(size: int) -> np.ndarray:
    """kappa': normalised exponential inverse-rank weights.

    The paper uses an exponential form so the defense focuses on the
    very most popular items (footnote 9). Item at mined rank ``i``
    (0 = most popular) receives weight proportional to ``exp(-i)``.
    """
    weights = np.exp(-np.arange(size, dtype=np.float64))
    return weights / weights.sum()


def re1_value(
    unpopular_vecs: np.ndarray, popular_vecs: np.ndarray, weights: np.ndarray
) -> float:
    """Re1 (Eq. 14): weighted mean popular/unpopular cosine similarity."""
    if len(unpopular_vecs) == 0:
        return 0.0
    u_norms = np.linalg.norm(unpopular_vecs, axis=1) + _EPS
    p_norms = np.linalg.norm(popular_vecs, axis=1) + _EPS
    cosines = (popular_vecs @ unpopular_vecs.T) / np.outer(p_norms, u_norms)
    return float((weights @ cosines).mean())


def re2_value(
    popular_vecs: np.ndarray, user_vec: np.ndarray, weights: np.ndarray
) -> float:
    """Re2 (Eq. 15): weighted KL between popular items and the user."""
    p = softmax(popular_vecs)
    q = softmax(user_vec)
    kls = np.sum(p * (np.log(p + _EPS) - np.log(q + _EPS)), axis=1)
    return float(weights @ kls)


class ClientRegularizer(Stateful):
    """Per-benign-client defense state and gradient terms.

    The hook protocol the batch engine runs per defended client (and
    the per-client reference in ``tests/reference/client.py``):

    * ``observe(item_matrix)`` — feed the received global item matrix
      into the client's own popular item miner;
    * ``item_grad_terms(item_ids, item_matrix)`` — extra gradient rows
      for the local batch implementing ``-beta * dRe1/dv_j``;
    * ``user_grad_term(user_emb, item_matrix)`` — extra user-embedding
      gradient implementing ``-gamma * dRe2/du_i``.

    Before the miner is ready both terms are zero (the client simply
    trains normally while accumulating Δ-Norm observations).
    """

    STATE = ("miner",)

    #: Relative strength of the tower-level Re2 term (DL-FRS only).
    TOWER_WEIGHT = 0.5
    #: Local items paired with each pseudo-user in the tower-level term.
    TOWER_ITEM_BATCH = 8

    def __init__(self, num_items: int, config: DefenseConfig):
        self.config = config
        self.miner = PopularItemMiner(
            num_items, config.mining_rounds, config.num_popular
        )

    # ------------------------------------------------------------------
    # Hook protocol
    # ------------------------------------------------------------------

    def observe(
        self, item_matrix: np.ndarray, snapshot: np.ndarray | None = None
    ) -> None:
        """Feed one received item matrix into the miner.

        ``snapshot`` is the miner's (see
        :meth:`~repro.attacks.mining.DeltaNormTracker.observe`): one
        retainable copy of ``item_matrix`` shared by the round's
        co-sampled clients.
        """
        self.miner.observe(item_matrix, snapshot=snapshot)

    def item_grad_terms(
        self, item_ids: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-beta * Re1`` w.r.t. the local batch items."""
        grads = np.zeros((len(item_ids), item_matrix.shape[1]))
        if not self.miner.ready or self.config.beta == 0.0:
            return grads
        popular = self.miner.popular_items()
        popular_vecs = item_matrix[popular]
        weights = exponential_rank_weights(len(popular))
        p_norms = np.linalg.norm(popular_vecs, axis=1) + _EPS

        unpopular_rows = np.flatnonzero(~np.isin(item_ids, popular))
        if len(unpopular_rows) == 0:
            return grads
        count = len(unpopular_rows)
        vecs = item_matrix[item_ids[unpopular_rows]]  # (m, d)
        v_norms = np.linalg.norm(vecs, axis=1) + _EPS  # (m,)
        # cosines[k, j] = cos(popular_k, unpopular_j).
        cosines = (popular_vecs @ vecs.T) / np.outer(p_norms, v_norms)
        weighted_pop = (weights[:, None] * popular_vecs / p_norms[:, None]).sum(axis=0)
        # d Re1 / d v_j = (sum_k kappa'_k * dcos/dv_j) / |Delta D_i|.
        first_term = weighted_pop[None, :] / v_norms[:, None]
        second_term = (weights @ cosines)[:, None] * vecs / (v_norms**2)[:, None]
        grads[unpopular_rows] = -self.config.beta * (first_term - second_term) / count
        return grads

    def user_grad_term(
        self, user_emb: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-gamma * Re2`` w.r.t. the user embedding."""
        if not self.miner.ready or self.config.gamma == 0.0:
            return np.zeros_like(user_emb)
        popular = self.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        # sum_k kappa'_k * (softmax(u) - softmax(v_k)) collapses to
        # softmax(u) - sum_k kappa'_k softmax(v_k) since weights sum to 1.
        q = softmax(user_emb)
        p_mean = weights @ softmax(item_matrix[popular])
        return -self.config.gamma * (q - p_mean)

    def param_grad_terms(self, model, item_ids: np.ndarray) -> list[np.ndarray]:
        """Re2 through the learnable interaction function (DL-FRS only).

        On DL-FRS, separating the user-embedding *distribution* is not
        enough: the learnable tower can still map (popular-item-as-user,
        target) pairs to high scores regardless of where real users
        live. This term realises Re2's goal — "user embeddings inferred
        from popular item embeddings are inherently inaccurate" — at
        the tower level: each benign client trains the interaction
        function to score pseudo-users built from its own mined popular
        items *low* on its local items, so an attacker approximating
        users with popular embeddings (PIECK-UEA) optimises against a
        channel the federation actively closes. Returns one gradient
        per interaction parameter; empty for MF-FRS.
        """
        params = model.interaction_params()
        if not params:
            return []
        if not self.miner.ready or self.config.gamma == 0.0:
            return [np.zeros_like(p) for p in params]
        popular = self.miner.popular_items()
        pseudo_users = model.item_embeddings[popular]
        items = model.item_embeddings[item_ids[: self.TOWER_ITEM_BATCH]]
        # All (pseudo-user, local item) pairs, trained towards label 0.
        n_pairs = len(pseudo_users) * len(items)
        users_rep = np.repeat(pseudo_users, len(items), axis=0)
        items_rep = np.tile(items, (len(pseudo_users), 1))
        logits, cache = model.forward(users_rep, items_rep)
        dlogits = sigmoid(logits) / n_pairs
        bundle = model.backward(cache, dlogits)
        weight = self.TOWER_WEIGHT * self.config.gamma
        # Confine the correction to the *user-slot* columns of the first
        # layer: that is the exact channel a pseudo-user enters through.
        # Touching the item half (or deeper layers) would suppress the
        # tower's scoring of real pairs and collapse recommendation
        # quality instead of closing the approximation channel.
        grads = [np.zeros_like(p) for p in params]
        first = bundle.params[0]
        user_dims = model.embedding_dim
        grads[0][:user_dims] = weight * first[:user_dims]
        return grads
