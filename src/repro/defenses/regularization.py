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

The terms of a whole round come from one call,
:func:`regularization_terms`, over every participant's mined set at
once.  Re1's gradient collapses: with ``a_c = sum_k kappa'_k p_k/|p_k|``
(one vector per client),
``sum_k kappa'_k dcos(p_k, v)/dv = a_c/|v| - (a_c . v) v/|v|^3``, so a
row costs one length-``d`` dot product and no matrix product.
:class:`ClientRegularizer` is the per-client oracle: its hooks are
one-row calls into the same function.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.mining import CohortMiner
from repro.config import DefenseConfig
from repro.metrics.divergence import softmax
from repro.models.losses import sigmoid

__all__ = [
    "ClientRegularizer",
    "exponential_rank_weights",
    "re1_value",
    "re2_value",
    "regularization_terms",
    "tower_grad_terms",
]

_EPS = 1e-12

#: Relative strength of the tower-level Re2 term (DL-FRS only).
TOWER_WEIGHT = 0.5
#: Local items paired with each pseudo-user in the tower-level term.
TOWER_ITEM_BATCH = 8


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


def _rank_weighted_sum(weights: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] * stacked[:, k]``, summed in rank order.

    An explicit sequential sum instead of a GEMV: the result for a row
    does not depend on how many rows are computed together.
    """
    total = weights[0] * stacked[:, 0]
    for k in range(1, len(weights)):
        total += weights[k] * stacked[:, k]
    return total


def regularization_terms(
    mined: np.ndarray,
    user_vecs: np.ndarray,
    item_ids: np.ndarray,
    lengths: np.ndarray,
    item_matrix: np.ndarray,
    beta: float,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``-beta * dRe1/dv`` and ``-gamma * dRe2/du`` for a whole cohort.

    Client ``c`` owns ``lengths[c]`` consecutive rows of ``item_ids``
    and the user row ``user_vecs[c]``; ``mined[c]`` is its popular set,
    most popular first, or all ``-1`` while its miner is not ready.
    Returns ``(item_terms, user_terms)`` shaped like the item rows and
    the user rows.  Rows with no term — a client not ready, a mined
    item, ``beta == 0`` or ``gamma == 0`` — are ``+0.0``, so adding the
    result to a gradient turns its ``-0.0`` entries into ``+0.0``
    exactly like adding the per-client zero block does.

    Every quantity is per client or per row (elementwise ops, sums
    over a contiguous last axis, rank-ordered sums over ``k``), so any
    split of the cohort computes the same bits.
    """
    num_clients = len(lengths)
    dim = item_matrix.shape[1]
    item_terms = np.zeros((len(item_ids), dim))
    user_terms = np.zeros((num_clients, dim))
    ready = np.flatnonzero(mined[:, 0] >= 0)
    if not len(ready):
        return item_terms, user_terms
    popular = mined[ready]
    weights = exponential_rank_weights(popular.shape[1])
    popular_vecs = item_matrix[popular]  # (ready, P, d)

    if beta != 0.0:
        slot = np.full(num_clients, -1, dtype=np.int64)
        slot[ready] = np.arange(len(ready))
        row_slot = np.repeat(slot, lengths)
        rows = np.flatnonzero(row_slot >= 0)
        is_popular = (item_ids[rows, None] == popular[row_slot[rows]]).any(axis=1)
        rows = rows[~is_popular]
        if len(rows):
            owner = row_slot[rows]
            count = np.bincount(owner, minlength=len(ready))[owner]
            p_norms = np.linalg.norm(popular_vecs, axis=-1) + _EPS
            # a_c = sum_k kappa'_k * p_k / ||p_k||.
            weighted_pop = _rank_weighted_sum(
                weights, popular_vecs / p_norms[..., None]
            )[owner]
            vecs = item_matrix[item_ids[rows]]  # (m, d)
            v_norms = np.linalg.norm(vecs, axis=1) + _EPS
            # sum_k kappa'_k cos(p_k, v) = (a_c . v) / ||v||.
            weighted_cos = (weighted_pop * vecs).sum(axis=1) / v_norms
            # d Re1 / d v_j = (sum_k kappa'_k * dcos/dv_j) / |Delta D_i|
            # = (a_c/||v|| - weighted_cos * v/||v||^2) / |Delta D_i|,
            # built in place: the rows are the round's largest arrays.
            first_term, second_term = weighted_pop, vecs
            first_term /= v_norms[:, None]
            second_term *= weighted_cos[:, None]
            second_term /= (v_norms**2)[:, None]
            first_term -= second_term
            first_term *= -beta
            first_term /= count[:, None]
            item_terms[rows] = first_term

    if gamma != 0.0:
        # sum_k kappa'_k * (softmax(u) - softmax(v_k)) collapses to
        # softmax(u) - sum_k kappa'_k softmax(v_k) since weights sum to 1.
        p_mean = _rank_weighted_sum(weights, softmax(popular_vecs))
        user_terms[ready] = -gamma * (softmax(user_vecs[ready]) - p_mean)
    return item_terms, user_terms


def tower_grad_terms(
    model, popular: np.ndarray, item_ids: np.ndarray, gamma: float
) -> list[np.ndarray]:
    """Re2 through the learnable interaction function (DL-FRS only).

    On DL-FRS, separating the user-embedding *distribution* is not
    enough: the learnable tower can still map (popular-item-as-user,
    target) pairs to high scores regardless of where real users
    live. This term realises Re2's goal — "user embeddings inferred
    from popular item embeddings are inherently inaccurate" — at
    the tower level: a benign client with mined set ``popular`` trains
    the interaction function to score pseudo-users built from those
    items *low* on its local items, so an attacker approximating
    users with popular embeddings (PIECK-UEA) optimises against a
    channel the federation actively closes. Returns one gradient
    per interaction parameter; empty for MF-FRS.
    """
    params = model.interaction_params()
    if not params:
        return []
    if gamma == 0.0:
        return [np.zeros_like(p) for p in params]
    pseudo_users = model.item_embeddings[popular]
    items = model.item_embeddings[item_ids[:TOWER_ITEM_BATCH]]
    # All (pseudo-user, local item) pairs, trained towards label 0.
    n_pairs = len(pseudo_users) * len(items)
    users_rep = np.repeat(pseudo_users, len(items), axis=0)
    items_rep = np.tile(items, (len(pseudo_users), 1))
    logits, cache = model.forward(users_rep, items_rep)
    dlogits = sigmoid(logits) / n_pairs
    bundle = model.backward(cache, dlogits)
    weight = TOWER_WEIGHT * gamma
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


class ClientRegularizer:
    """One benign client's defense state and gradient terms — the oracle.

    The batch engine keeps every client's miner in one
    :class:`~repro.attacks.mining.CohortMiner` and computes a round's
    terms with one :func:`regularization_terms` call.  This class is
    the per-client formulation the reference loop in
    ``tests/reference/client.py`` runs, hook by hook:

    * ``observe(item_matrix)`` — feed the received global item matrix
      into the client's own popular item miner (a one-member
      :class:`~repro.attacks.mining.CohortMiner`);
    * ``item_grad_terms(item_ids, item_matrix)`` — extra gradient rows
      for the local batch implementing ``-beta * dRe1/dv_j``;
    * ``user_grad_term(user_emb, item_matrix)`` — extra user-embedding
      gradient implementing ``-gamma * dRe2/du_i``;
    * ``param_grad_terms(model, item_ids)`` — :func:`tower_grad_terms`.

    The first two terms are one-row calls into
    :func:`regularization_terms`, so the reference and the batch engine
    agree bit for bit by construction.  Before the miner is ready every
    term is zero (the client simply trains normally while accumulating
    Δ-Norm observations).
    """

    def __init__(self, num_items: int, config: DefenseConfig):
        self.config = config
        self.miner = CohortMiner(
            num_items, config.mining_rounds, config.num_popular, 1
        )

    # ------------------------------------------------------------------
    # Hook protocol
    # ------------------------------------------------------------------

    def observe(self, item_matrix: np.ndarray) -> None:
        """Feed one received item matrix into the miner.

        There is no round index here, so the observation count keys
        the miner's snapshot.
        """
        self.miner.observe([0], item_matrix, int(self.miner.observations[0]))

    def item_grad_terms(
        self, item_ids: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-beta * Re1`` w.r.t. the local batch items."""
        item_terms, _ = regularization_terms(
            self.miner.mined,
            np.zeros((1, item_matrix.shape[1])),
            item_ids,
            np.array([len(item_ids)]),
            item_matrix,
            self.config.beta,
            0.0,
        )
        return item_terms

    def user_grad_term(
        self, user_emb: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-gamma * Re2`` w.r.t. the user embedding."""
        _, user_terms = regularization_terms(
            self.miner.mined,
            user_emb[None, :],
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            item_matrix,
            0.0,
            self.config.gamma,
        )
        return user_terms[0]

    def param_grad_terms(self, model, item_ids: np.ndarray) -> list[np.ndarray]:
        """:func:`tower_grad_terms` for this client's mined set."""
        if not self.miner.ready[0]:
            return [np.zeros_like(p) for p in model.interaction_params()]
        return tower_grad_terms(
            model, self.miner.mined[0], item_ids, self.config.gamma
        )
