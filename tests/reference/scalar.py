"""Scalar oracles of the package's stacked and batched kernels.

Each function here is the one-client (or one-row, or dense) form of a
computation the package only runs stacked.  The parity and property
suites compare the package against them:

* :func:`bounded_step_gradient` — one row of
  ``repro.attacks.base.stacked_step_gradients``;
* :func:`bce_loss_and_grad` / :func:`bpr_loss_and_grad` — one client's
  segment of ``repro.models.losses.bce_grad_segmented`` /
  ``bpr_grad_segmented``, plus the loss values;
* :func:`sample_local_batch` — one client's rows of
  ``repro.datasets.sampling.sample_local_batches``, whose positives
  come as the CSR pair :func:`ragged_csr` builds;
* :func:`softmax_kl` — one entry of ``repro.metrics.divergence.pairwise_kl``;
* :func:`train_mask` — the dense matrix whose row blocks
  ``ShardedStateStore.train_mask_block`` returns;
* :func:`top_k_items` — the per-user top-K lists whose target hits
  ``repro.metrics.ranking.exposure_counts_at_k`` counts;
* :func:`exposure_ratio_at_k` / :func:`hit_ratio_at_k` — ER@K and
  HR@K over one whole score matrix, which the package only counts
  block by block;
* :func:`sample_eval_negatives` / :func:`pack_eval_negatives` — the
  per-user lists of evaluation negatives and their padding, whose
  value ``repro.metrics.ranking.sample_packed_eval_negatives`` writes
  straight into one matrix.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset
from repro.datasets.sampling import sample_negatives
from repro.metrics.divergence import softmax
from repro.metrics.ranking import (
    _eval_negative_blocks,
    exposure_counts_at_k,
    exposure_ratio_from_counts,
    hit_counts_at_k,
    hit_ratio_from_counts,
)
from repro.models.losses import sigmoid


def bounded_step_gradient(
    old: np.ndarray, new: np.ndarray, server_lr: float, max_step: float
) -> np.ndarray:
    """The upload ``(old - new) / eta`` with the move capped at ``max_step``."""
    delta = new - old
    norm = float(np.linalg.norm(delta))
    if max_step > 0 and norm > max_step:
        delta = delta * (max_step / norm)
    return (old - (old + delta)) / server_lr


def bce_loss_and_grad(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy (Eq. 2) and its gradient w.r.t. logits."""
    if logits.shape != labels.shape:
        raise ValueError("logits and labels must have matching shapes")
    n = max(len(logits), 1)
    # BCE(logit, y) = logaddexp(0, logit) - y * logit (stable form).
    loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))
    probs = sigmoid(logits)
    return loss, (probs - labels.astype(probs.dtype)) / n


def bpr_loss_and_grad(
    pos_logits: np.ndarray, neg_logits: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean BPR loss (supplementary E) and its two logit gradients."""
    if pos_logits.shape != neg_logits.shape:
        raise ValueError("BPR requires paired positives and negatives")
    n = max(len(pos_logits), 1)
    diff = pos_logits - neg_logits
    loss = float(np.mean(np.logaddexp(0.0, -diff)))
    ddiff = (sigmoid(diff) - 1.0) / n
    return loss, ddiff, -ddiff


def sample_local_batch(
    rng: np.random.Generator,
    positive_items: np.ndarray,
    num_items: int,
    negative_ratio: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One client's ``(items, labels)``: positives, then fresh negatives."""
    negatives = sample_negatives(
        rng, positive_items, num_items, negative_ratio * len(positive_items)
    )
    items = np.concatenate([positive_items, negatives])
    labels = np.concatenate([np.ones(len(positive_items)), np.zeros(len(negatives))])
    return items, labels


def ragged_csr(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, flat)`` int64 CSR pair of a list of id arrays."""
    lengths = np.fromiter((len(a) for a in arrays), dtype=np.int64, count=len(arrays))
    if not len(arrays):
        return lengths, np.empty(0, dtype=np.int64)
    return lengths, np.concatenate(arrays).astype(np.int64, copy=False)


def softmax_kl(p_vec: np.ndarray, q_vec: np.ndarray) -> float:
    """``KL(softmax(p_vec) || softmax(q_vec))`` for two embeddings."""
    p = softmax(p_vec)
    q = softmax(q_vec)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def train_mask(dataset) -> np.ndarray:
    """Boolean ``(num_users, num_items)`` mask of training interactions."""
    mask = np.zeros((dataset.num_users, dataset.num_items), dtype=bool)
    for user, items in enumerate(dataset.train_pos):
        mask[user, items] = True
    return mask


def top_k_items(scores: np.ndarray, train_mask: np.ndarray, k: int) -> np.ndarray:
    """Per-user top-K uninteracted items from a score matrix.

    ``scores`` is (U, m) logits; training interactions are excluded from
    recommendation (users are only recommended new items). Returns an
    (U, k) array of item ids; slots beyond a user's recommendable pool
    (when K exceeds it) hold the sentinel ``-1``.
    """
    if scores.shape != train_mask.shape:
        raise ValueError("scores and train_mask shapes differ")
    masked = np.where(train_mask, -np.inf, scores)
    k = min(k, scores.shape[1])
    part = np.argpartition(-masked, kth=k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(masked, part, axis=1)
    order = np.argsort(-row_scores, axis=1, kind="stable")
    top = np.take_along_axis(part, order, axis=1)
    # Never recommend a masked item, even when K exceeds the pool.
    top_scores = np.take_along_axis(masked, top, axis=1)
    top[np.isneginf(top_scores)] = -1
    return top


def exposure_ratio_at_k(
    scores: np.ndarray,
    train_mask: np.ndarray,
    target_items: np.ndarray,
    k: int,
) -> float:
    """ER@K (Eq. 3), averaged over target items.

    For each target ``v_j``: the fraction of benign users who have *not*
    interacted with ``v_j`` whose top-K list contains ``v_j``. Rows of
    ``scores`` should cover benign users only.
    """
    return exposure_ratio_from_counts(
        *exposure_counts_at_k(scores, train_mask, target_items, k)
    )


def sample_eval_negatives(
    dataset: InteractionDataset, num_negatives: int, seed: int
) -> list[np.ndarray]:
    """Per-user evaluation negatives, one array a user, in draw order.

    The list form of ``repro.metrics.ranking.sample_packed_eval_negatives``
    (same streams and blocks, same values).
    """
    if num_negatives <= 0:
        # HR evaluation disabled (million-user throughput runs): skip
        # spawning a per-user RNG for every user.  One shared empty
        # array keeps the per-user list O(pointers).
        empty = np.empty(0, dtype=np.int64)
        return [empty] * dataset.num_users
    out: list[np.ndarray] = []
    for _, _, negatives, num_neg in _eval_negative_blocks(dataset, num_negatives, seed):
        ends = np.cumsum(num_neg)
        out.extend(
            negatives[end - n : end] for end, n in zip(ends.tolist(), num_neg.tolist())
        )
    return out


def pack_eval_negatives(
    eval_negatives: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user negative lists as a padded ``(U, n)`` id matrix + lengths.

    Row ``u`` holds user ``u``'s negatives in its first ``lengths[u]``
    columns (zeros beyond), the form :func:`hit_counts_at_k` slices by
    user block.
    """
    lengths = np.fromiter(
        (len(negs) for negs in eval_negatives),
        dtype=np.int64,
        count=len(eval_negatives),
    )
    width = int(lengths.max(initial=0))
    padded = np.zeros((len(lengths), width), dtype=np.int64)
    if width:
        padded[np.arange(width) < lengths[:, None]] = np.concatenate(eval_negatives)
    return padded, lengths


def hit_ratio_at_k(
    scores: np.ndarray,
    dataset: InteractionDataset,
    eval_negatives: list[np.ndarray],
    k: int,
) -> float:
    """HR@K under leave-one-out with sampled negatives.

    For each user with a held-out test item: hit if the test item's
    score beats all but at most ``k - 1`` of the sampled negatives.
    Ties count half a loss each, so a degenerate constant-output model
    scores ~k/(negatives+1) instead of a spurious 100%.

    Computed as one batched rank pass over all evaluable users
    (:func:`hit_counts_at_k`): the per-user negative lists
    (equal-length in the standard protocol, padded and masked
    otherwise) gather into a ``(users, negatives)`` score matrix and
    the win/tie counts reduce along its rows — the same integer
    counts, and therefore the same ranks and mean, as the per-user
    reference loop.
    """
    return hit_ratio_from_counts(
        *hit_counts_at_k(
            scores, dataset.test_items, *pack_eval_negatives(eval_negatives), k
        )
    )
