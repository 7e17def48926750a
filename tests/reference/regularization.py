"""The batched L_def terms as first written: one ``(ready, P, d)`` block.

:func:`repro.defenses.regularization.regularization_terms` computes a
popular item's unit vector and softmax once per distinct mined item and
looks the mined rows up by sorted keys.  This module keeps the earlier
formulation — every ready client gathers its own ``(P, d)`` popular
block, and a ``(rows, P)`` compare finds its mined rows — as the
independent oracle the package function must equal byte for byte
(``ClientRegularizer``'s hooks are one-row calls into the package
function, so they cannot see a change that moves every row alike).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.regularization import exponential_rank_weights
from repro.metrics.divergence import softmax

__all__ = ["regularization_terms"]

_EPS = 1e-12


def _rank_weighted_sum(weights: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] * stacked[:, k]``, summed in rank order."""
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
    """``-beta * dRe1/dv`` and ``-gamma * dRe2/du`` for a whole cohort,
    with the package function's signature and contract."""
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
            weighted_pop = _rank_weighted_sum(
                weights, popular_vecs / p_norms[..., None]
            )[owner]
            vecs = item_matrix[item_ids[rows]]  # (m, d)
            v_norms = np.linalg.norm(vecs, axis=1) + _EPS
            weighted_cos = (weighted_pop * vecs).sum(axis=1) / v_norms
            first_term, second_term = weighted_pop, vecs
            first_term /= v_norms[:, None]
            second_term *= weighted_cos[:, None]
            second_term /= (v_norms**2)[:, None]
            first_term -= second_term
            first_term *= -beta
            first_term /= count[:, None]
            item_terms[rows] = first_term

    if gamma != 0.0:
        p_mean = _rank_weighted_sum(weights, softmax(popular_vecs))
        user_terms[ready] = -gamma * (softmax(user_vecs[ready]) - p_mean)
    return item_terms, user_terms
