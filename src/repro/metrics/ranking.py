"""Ranking metrics: ER@K (Eq. 3) and HR@K (leave-one-out protocol).

ER@K measures attack success: the fraction of eligible benign users
whose top-K recommendation list contains a target item, averaged over
targets. HR@K measures recommendation quality: whether the held-out
test item ranks in the top-K against sampled negatives (NCF protocol).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset
from repro.datasets.sampling import sample_negatives_batch
from repro.rng import spawn_batch

__all__ = [
    "top_k_items",
    "exposure_counts_at_k",
    "exposure_ratio_from_counts",
    "exposure_ratio_at_k",
    "pack_eval_negatives",
    "hit_counts_at_k",
    "hit_ratio_from_counts",
    "hit_ratio_at_k",
    "sample_eval_negatives",
    "sample_packed_eval_negatives",
]


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


def exposure_counts_at_k(
    scores: np.ndarray,
    train_mask: np.ndarray,
    target_items: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target ``(hits, eligible)`` counts over one block of users.

    The streaming building block of ER@K: counts are integers, so
    accumulating them over user blocks and dividing once is
    bit-identical to evaluating the whole user matrix at once —
    ``hit.mean()`` over booleans *is* the same integer division.

    No top-K list is built.  A user who has not interacted with target
    ``t`` is a hit iff fewer than ``k`` recommendable (unmasked) items
    are *ahead* of ``t``: a strictly greater score, or an equal score
    and a smaller item id — the order of a stable descending sort, so
    a tie at the K boundary goes to the smaller id.  A NaN score is
    ahead of nothing, and a target whose own score is not finite is a
    miss.  The cost is one pass over the score block per target,
    linear in ``len(target_items)``: about 18 ms a target at 2796 users
    x 6000 items, where one partition of the block into top-K lists
    costs 170 ms whatever the number of targets — cheaper from about
    ten targets on.  The default is one target and the paper's tables
    stop at five.
    """
    target_items = np.atleast_1d(np.asarray(target_items))
    if len(target_items) == 0:
        raise ValueError("no target items given")
    if scores.shape != train_mask.shape:
        raise ValueError("scores and train_mask shapes differ")
    hits = np.empty(len(target_items), dtype=np.int64)
    eligible = np.empty(len(target_items), dtype=np.int64)
    unmasked = np.logical_not(train_mask)
    ahead = np.empty(scores.shape, dtype=bool)
    for row, target in enumerate(target_items.tolist()):
        target_scores = scores[:, target]
        open_users = unmasked[:, target]
        np.greater_equal(
            scores[:, :target], target_scores[:, None], out=ahead[:, :target]
        )
        np.greater(scores[:, target:], target_scores[:, None], out=ahead[:, target:])
        ahead &= unmasked
        exposed = np.count_nonzero(ahead, axis=1) < k
        exposed &= np.isfinite(target_scores)
        exposed &= open_users
        eligible[row] = np.count_nonzero(open_users)
        hits[row] = np.count_nonzero(exposed)
    return hits, eligible


def exposure_ratio_from_counts(
    hits: np.ndarray, eligible: np.ndarray
) -> float:
    """ER@K from accumulated per-target counts.

    A target with no eligible users contributes 0.0, matching the
    dense reference; the single place the convention lives.
    """
    ratios = np.where(eligible > 0, hits / np.maximum(eligible, 1), 0.0)
    return float(np.mean(ratios))


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


#: Users per cohort-sampler call in :func:`sample_eval_negatives`.
_EVAL_NEGATIVES_BLOCK = 256


def _redraw_eval_negatives(
    rng: np.random.Generator, banned: np.ndarray, num_items: int, count: int
) -> np.ndarray:
    """One user's evaluation negatives, drawn on its ``Generator``.

    The protocol's own top-up rule: every draw is the full
    ``max(2 * count, 8)`` ids (training's top-up shrinks to what is
    still needed), and a pool of exactly ``count`` ids is drawn, not
    enumerated — so the order of the result is the draw order.
    """
    taken = set(banned.tolist())
    chosen: list[int] = []
    while len(chosen) < count:
        for j in rng.integers(0, num_items, size=max(2 * count, 8)).tolist():
            if j not in taken:
                taken.add(j)
                chosen.append(j)
                if len(chosen) == count:
                    break
    return np.asarray(chosen, dtype=np.int64)


def _banned_sets(
    indptr: np.ndarray, indices: np.ndarray, test_items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, flat)`` CSR of a user block's evaluation banned sets.

    ``indptr`` is the block's slice of the training CSR offsets.  User
    ``u``'s set is its training positives followed by its test item,
    unless the item is absent (-1) or already among them.
    """
    num_train = np.diff(indptr)
    flat = indices[indptr[0] : indptr[-1]]
    hits = np.flatnonzero(flat == np.repeat(test_items, num_train))
    appended = test_items >= 0
    appended[np.searchsorted(indptr, indptr[0] + hits, side="right") - 1] = False
    ends = indptr[1:] - indptr[0]
    return num_train + appended, np.insert(flat, ends[appended], test_items[appended])


def sample_eval_negatives(
    dataset: InteractionDataset, num_negatives: int, seed: int
) -> list[np.ndarray]:
    """Fixed per-user negative samples for HR@K evaluation.

    The NCF protocol ranks the held-out test item against ``num_negatives``
    items the user has not interacted with. Sampling once (deterministic
    in the seed) keeps HR@K comparable across rounds and methods.

    Each user owns its private labelled RNG stream (``spawn(seed,
    "eval-neg", user)``) and receives, in draw order, the first ids of
    it that are neither interacted with nor the test item.  All users'
    first draws go through the cohort-wide sampler
    (:func:`~repro.datasets.sampling.sample_negatives_batch`, banned
    set = positives plus the test item, a block's sets built as one CSR
    from the dataset's by :func:`_banned_sets`); a user it cannot serve
    is redrawn by :func:`_redraw_eval_negatives`.
    """
    if num_negatives <= 0:
        # HR evaluation disabled (million-user throughput runs): skip
        # spawning a per-user RNG for every user.  One shared empty
        # array keeps the per-user list O(pointers).
        empty = np.empty(0, dtype=np.int64)
        return [empty] * dataset.num_users
    indptr, indices = dataset.train_csr()
    test_items = np.asarray(dataset.test_items, dtype=np.int64)
    out: list[np.ndarray] = []
    # Blocks of users bound the sampler's cohort-wide sort keys
    # (~2 * num_negatives per user) however many users there are.
    for lo in range(0, dataset.num_users, _EVAL_NEGATIVES_BLOCK):
        hi = min(lo + _EVAL_NEGATIVES_BLOCK, dataset.num_users)
        tests = test_items[lo:hi]
        num_banned, banned = _banned_sets(indptr[lo : hi + 1], indices, tests)
        # An absent (-1) test item still costs the pool one slot: the
        # reference banned set is positives | {test_item}.
        pool_sizes = dataset.num_items - num_banned - (tests < 0)
        negatives, num_neg = sample_negatives_batch(
            spawn_batch(seed, ("eval-neg",), np.arange(lo, hi)),
            num_banned,
            banned,
            dataset.num_items,
            np.clip(pool_sizes, 0, num_negatives),
            fallback=_redraw_eval_negatives,
        )
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


def sample_packed_eval_negatives(
    dataset: InteractionDataset, num_negatives: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pack_eval_negatives` of :func:`sample_eval_negatives`.

    With HR evaluation disabled (``num_negatives <= 0``, the
    million-user throughput runs) the packed form is a ``(U, 0)`` id
    matrix and zero lengths, built directly: no per-user list at all.
    """
    if num_negatives <= 0:
        return (
            np.zeros((dataset.num_users, 0), dtype=np.int64),
            np.zeros(dataset.num_users, dtype=np.int64),
        )
    return pack_eval_negatives(sample_eval_negatives(dataset, num_negatives, seed))


def hit_counts_at_k(
    scores: np.ndarray,
    test_items: np.ndarray,
    negatives: np.ndarray,
    lengths: np.ndarray,
    k: int,
) -> tuple[int, int]:
    """``(hits, evaluable users)`` counts over one block of users.

    The streaming building block of HR@K: ``scores`` rows,
    ``test_items`` and the packed ``negatives``/``lengths`` rows
    (:func:`pack_eval_negatives`) are aligned slices of the same user
    block.  Ranks are computed per row, so block boundaries cannot
    change them; accumulating the integer counts over blocks and
    dividing once reproduces the whole-matrix mean exactly.
    """
    test_items = np.asarray(test_items, dtype=np.int64)
    users = np.flatnonzero((test_items >= 0) & (lengths > 0))
    if not len(users):
        return 0, 0
    lens = lengths[users]
    padded = negatives[users, : int(lens.max())]
    mask = np.arange(padded.shape[1]) < lens[:, None]
    test_scores = scores[users, test_items[users]]
    neg_scores = scores[users[:, None], padded]
    greater = ((neg_scores > test_scores[:, None]) & mask).sum(axis=1)
    equal = ((neg_scores == test_scores[:, None]) & mask).sum(axis=1)
    ranks = greater + 0.5 * equal
    return int((ranks < k).sum()), len(users)


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


def hit_ratio_from_counts(hits: int, total: int) -> float:
    """HR@K from accumulated counts; no evaluable users means 0.0."""
    return hits / total if total else 0.0
