"""Distribution-closeness metrics: PKL (Eq. 9) and UCR.

The paper treats an embedding vector as a categorical distribution via
softmax and measures KL divergence between such distributions. PKL
(average pairwise KL) quantifies how closely the mined popular items'
embedding distribution mirrors the user-embedding distribution
(Property 3, Table II); UCR measures how many users at least one mined
popular item reaches.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset

__all__ = ["softmax", "pairwise_kl", "user_coverage_ratio"]


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise (or vector) softmax, numerically stable."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def pairwise_kl(p_matrix: np.ndarray, q_matrix: np.ndarray) -> float:
    """Average pairwise KL divergence between two embedding sets (Eq. 9).

    ``PKL(V_P, U_P) = mean over (v, u) pairs of KL(softmax(v) || softmax(u))``.
    Vectorised over the full cross product.
    """
    if len(p_matrix) == 0 or len(q_matrix) == 0:
        raise ValueError("both embedding sets must be non-empty")
    p = softmax(p_matrix)  # (a, d)
    q = softmax(q_matrix)  # (b, d)
    log_p = np.log(p)
    log_q = np.log(q)
    entropy_term = np.sum(p * log_p, axis=1)  # (a,)
    cross = p @ log_q.T  # (a, b)
    return float(np.mean(entropy_term[:, None] - cross))


def user_coverage_ratio(dataset: InteractionDataset, popular_items: np.ndarray) -> float:
    """UCR: fraction of users who interacted with >= 1 mined popular item."""
    popular = np.atleast_1d(np.asarray(popular_items, dtype=np.int64))
    if popular.size == 0:
        return 0.0
    covered = len(dataset.covered_users(popular))
    return covered / max(dataset.num_users, 1)
