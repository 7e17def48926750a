"""Per-user oracles of the dataset builders.

The package builds its datasets block-vectorised; these are the
original one-user-at-a-time loops it must reproduce byte for byte:

* :func:`generate_longtail_dataset` — ``repro.datasets.synthetic``'s
  generator with one ``Generator.choice(replace=False, p=...)`` call
  and one ``integers`` hold-out draw per user;
* :func:`interactions_to_dataset` — ``repro.datasets.loaders``'
  leave-one-out split over a dict of per-user item sets.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset
from repro.datasets.synthetic import _latent_affinity, _zipf_weights
from repro.rng import spawn


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
    """``repro.datasets.synthetic.generate_longtail_dataset``, one user
    at a time."""
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

    per_user_items: list[np.ndarray] = []
    log_pop = np.log(base_pop)
    for user in range(num_users):
        # Mixture of global popularity and personal taste in log space.
        logits = log_pop + affinity_strength * (item_latent @ user_latent[user])
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        chosen = rng.choice(num_items, size=counts[user], replace=False, p=probs)
        per_user_items.append(np.sort(chosen))

    # Leave-one-out split: hold out one uniformly random interaction per
    # user as the test item (He et al. protocol used by the paper).
    train_pos: list[np.ndarray] = []
    test_items = np.full(num_users, -1, dtype=np.int64)
    for user, items in enumerate(per_user_items):
        if len(items) > min_interactions_per_user - 1:
            held = int(rng.integers(len(items)))
            test_items[user] = items[held]
            items = np.delete(items, held)
        train_pos.append(items)

    return InteractionDataset(
        name=name,
        num_users=num_users,
        num_items=num_items,
        train_pos=train_pos,
        test_items=test_items,
    )


def interactions_to_dataset(
    users: np.ndarray,
    items: np.ndarray,
    *,
    name: str,
    min_interactions_per_user: int = 3,
    seed: int = 0,
) -> InteractionDataset:
    """``repro.datasets.loaders.interactions_to_dataset``, one user at a
    time."""
    if len(users) != len(items):
        raise ValueError("users and items must have equal length")
    rng = spawn(seed, "loo-split", name)

    # Dense remap.
    unique_users, user_idx = np.unique(users, return_inverse=True)
    unique_items, item_idx = np.unique(items, return_inverse=True)
    per_user: dict[int, set[int]] = {}
    for u, i in zip(user_idx, item_idx):
        per_user.setdefault(int(u), set()).add(int(i))

    kept = [u for u in range(len(unique_users)) if len(per_user[u]) >= min_interactions_per_user]
    train_pos: list[np.ndarray] = []
    test_items = np.full(len(kept), -1, dtype=np.int64)
    for new_u, old_u in enumerate(kept):
        its = np.array(sorted(per_user[old_u]), dtype=np.int64)
        held = int(rng.integers(len(its)))
        test_items[new_u] = its[held]
        train_pos.append(np.delete(its, held))

    return InteractionDataset(
        name=name,
        num_users=len(kept),
        num_items=len(unique_items),
        train_pos=train_pos,
        test_items=test_items,
    )
