"""Calibrated long-tail synthetic interaction generator.

The paper's phenomena rest on three distributional facts about its
datasets (Fig. 3, Table VIII):

1. item popularity follows a long-tail (Zipf-like) law — the top 15% of
   items collect over half of all interactions;
2. per-user activity is skewed (some users rate a lot, most a little);
3. interactions are *correlated*: users with similar latent tastes
   interact with overlapping item sets, which is what lets popular-item
   embeddings mirror the user-embedding distribution (Property 3).

The generator below reproduces all three: items get Zipf popularity
weights, users get log-normal activity levels, and both live in a small
latent preference space so that co-interaction structure is realistic
rather than independent random sampling.

Users are generated a block at a time: one GEMV a user for the taste
scores, then row-wise array ops for the sampling weights and their
cdf, and NumPy's own without-replacement ``choice`` loop replayed on
them, so every dataset is byte for byte the one a per-user
``rng.choice(..., replace=False, p=...)`` loop draws
(``tests/reference/datasets.py``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset, csr_rows, hold_out_one
from repro.rng import spawn

__all__ = ["generate_longtail_dataset"]

#: Users whose sampling weights are built as one row block.
_BLOCK_USERS = 32


def _zipf_weights(num_items: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like base popularity weights, shuffled over item ids.

    Shuffling decouples item *id* from item *rank* so that nothing in
    the library can accidentally exploit id ordering.
    """
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _latent_affinity(
    num_users: int,
    num_items: int,
    latent_dim: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Latent taste vectors for users and items on the unit sphere."""
    users = rng.normal(size=(num_users, latent_dim))
    items = rng.normal(size=(num_items, latent_dim))
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    items /= np.linalg.norm(items, axis=1, keepdims=True)
    return users, items


def _choice_without_replacement(
    rng: np.random.Generator, probs: np.ndarray, cdf: np.ndarray, count: int
) -> set[int]:
    """The ids of ``rng.choice(len(probs), count, replace=False, p=probs)``.

    NumPy's own loop, replayed on the precomputed ``cdf`` (``cumsum(probs)``
    over its last entry): draw ``count - found`` uniforms and map each
    through ``cdf.searchsorted(x, side="right")``; on a shortfall, zero the
    found ids' weights, rebuild the cdf and draw again.  The same
    uniforms give the same ids.  Each pass finds at least one new id, so
    weights with fewer than ``count`` non-zero entries run out of mass
    before the ids run short, and raise ``choice``'s error there.
    """
    found = set(cdf.searchsorted(rng.random(count), side="right").tolist())
    if len(found) < count:
        probs = probs.copy()
        while len(found) < count:
            draws = rng.random(count - len(found))
            probs[list(found)] = 0
            cdf = np.cumsum(probs)
            if cdf[-1] == 0:
                raise ValueError("Fewer non-zero entries in p than size")
            cdf /= cdf[-1]
            found.update(cdf.searchsorted(draws, side="right").tolist())
    return found


def generate_longtail_dataset(
    num_users: int,
    num_items: int,
    num_interactions: int,
    *,
    popularity_exponent: float = 1.0,
    latent_dim: int = 4,
    affinity_strength: float = 2.0,
    min_interactions_per_user: int = 3,
    name: str = "synthetic",
    seed: int = 0,
) -> InteractionDataset:
    """Generate an implicit-feedback dataset with long-tail popularity.

    Parameters
    ----------
    num_users, num_items, num_interactions:
        Target sizes; actual interaction count may differ slightly
        because duplicates are removed and per-user minimums enforced.
    popularity_exponent:
        Zipf exponent of the item popularity law. 1.0 reproduces the
        ML-100K-like head/tail split of Fig. 3.
    latent_dim, affinity_strength:
        Size and sharpness of the latent taste space driving user-item
        co-interaction correlation.
    min_interactions_per_user:
        Every user receives at least this many interactions (one is
        held out for the leave-one-out test split).
    """
    if num_interactions < num_users * min_interactions_per_user:
        raise ValueError(
            "num_interactions too small to give every user "
            f"{min_interactions_per_user} interactions"
        )
    rng = spawn(seed, "synthetic", name)
    base_pop = _zipf_weights(num_items, popularity_exponent, rng)
    user_latent, item_latent = _latent_affinity(num_users, num_items, latent_dim, rng)

    # Per-user activity: log-normal, normalised to the interaction budget.
    activity = rng.lognormal(mean=0.0, sigma=0.8, size=num_users)
    activity = activity / activity.sum() * num_interactions
    counts = np.maximum(min_interactions_per_user, np.round(activity)).astype(np.int64)
    counts = np.minimum(counts, num_items - 1)

    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    bounds = indptr.tolist()
    log_pop = np.log(base_pop)
    probs = np.empty((min(_BLOCK_USERS, num_users), num_items))
    cdf = np.empty_like(probs)
    for lo in range(0, num_users, _BLOCK_USERS):
        block = probs[: min(_BLOCK_USERS, num_users - lo)]
        # Mixture of global popularity and personal taste in log space,
        # one user's GEMV a row (a batched GEMM rounds differently).
        for row, user_vec in enumerate(user_latent[lo : lo + len(block)]):
            np.matmul(item_latent, user_vec, out=block[row])
        block *= affinity_strength
        block += log_pop
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        block_cdf = np.cumsum(block, axis=1, out=cdf[: len(block)])
        block_cdf /= block_cdf[:, -1:].copy()
        rows = zip(bounds[lo : lo + len(block)], bounds[lo + 1 : lo + 1 + len(block)])
        for row, (start, stop) in enumerate(rows):
            chosen = _choice_without_replacement(
                rng, block[row], block_cdf[row], stop - start
            )
            indices[start:stop] = sorted(chosen)

    # Leave-one-out split: hold out one uniformly random interaction per
    # user as the test item (He et al. protocol used by the paper); with
    # a catalogue too small for the minimum, nobody is held out.
    if num_items - 1 >= min_interactions_per_user:
        indptr, indices, test_items = hold_out_one(indptr, indices, rng)
    else:
        test_items = np.full(num_users, -1, dtype=np.int64)
    return InteractionDataset(
        name,
        num_users,
        num_items,
        csr_rows(indptr, indices),
        test_items,
        _train_csr=(indptr, indices),
    )
