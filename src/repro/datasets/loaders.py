"""Dataset registry: real-file loaders with a synthetic fallback.

Table VIII of the paper gives the statistics of the three evaluation
datasets. When the raw files are available on disk (``u.data`` for
MovieLens-100K, ``ratings.dat`` for ML-1M, a ``.csv`` for Amazon
Digital Music) they are parsed directly; otherwise the calibrated
synthetic generator reproduces the same statistics, optionally scaled
down by a ``scale`` factor for fast experimentation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.config import DatasetConfig
from repro.datasets.base import InteractionDataset, csr_rows, hold_out_one
from repro.datasets.synthetic import generate_longtail_dataset
from repro.rng import spawn

__all__ = ["DatasetStats", "DATASET_STATS", "load_dataset", "interactions_to_dataset"]


@dataclass(frozen=True)
class DatasetStats:
    """Size statistics of a supported dataset (paper Table VIII)."""

    num_users: int
    num_items: int
    num_interactions: int
    #: Zipf-like exponent calibrated to reproduce the dataset's
    #: head/tail interaction share (Fig. 3).
    popularity_exponent: float


#: Statistics from Table VIII of the paper.
DATASET_STATS: dict[str, DatasetStats] = {
    "ml-100k": DatasetStats(943, 1_682, 100_000, 1.0),
    "ml-1m": DatasetStats(6_040, 3_706, 1_000_209, 1.0),
    "az": DatasetStats(16_566, 11_797, 169_781, 0.9),
}

#: Candidate raw-file locations, relative to a data root.
_RAW_FILES = {
    "ml-100k": ("ml-100k/u.data", "u.data"),
    "ml-1m": ("ml-1m/ratings.dat", "ratings.dat"),
    "az": ("az/ratings.csv", "Digital_Music.csv", "ratings_Digital_Music.csv"),
}


def interactions_to_dataset(
    users: np.ndarray,
    items: np.ndarray,
    *,
    name: str,
    min_interactions_per_user: int = 3,
    seed: int = 0,
) -> InteractionDataset:
    """Build an :class:`InteractionDataset` from raw (user, item) pairs.

    Raw ids are remapped to dense ranges; users with fewer than
    ``min_interactions_per_user`` interactions are dropped (standard
    pre-processing for leave-one-out evaluation); one interaction per
    remaining user is held out as the test item.
    """
    if len(users) != len(items):
        raise ValueError("users and items must have equal length")
    rng = spawn(seed, "loo-split", name)

    # Dense remap, then each distinct (user, item) pair once, sorted by
    # user and then item.
    unique_users, user_idx = np.unique(users, return_inverse=True)
    unique_items, item_idx = np.unique(items, return_inverse=True)
    num_items = len(unique_items)
    pairs = np.unique(user_idx.reshape(-1) * num_items + item_idx.reshape(-1))
    counts = np.bincount(pairs // num_items, minlength=len(unique_users))
    kept = counts >= min_interactions_per_user
    indptr = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[kept], out=indptr[1:])
    indices = (pairs % num_items)[np.repeat(kept, counts)].astype(np.int64)
    indptr, indices, test_items = hold_out_one(indptr, indices, rng)
    return InteractionDataset(
        name,
        len(indptr) - 1,
        num_items,
        csr_rows(indptr, indices),
        test_items,
        _train_csr=(indptr, indices),
    )


def _find_raw_file(name: str, data_root: str) -> str | None:
    for candidate in _RAW_FILES.get(name, ()):
        path = os.path.join(data_root, candidate)
        if os.path.exists(path):
            return path
    return None


def _parse_raw(name: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse (user, item) pairs from a raw interaction file."""
    users: list[int] = []
    items: list[int] = []
    if name == "ml-100k":
        sep = "\t"
    elif name == "ml-1m":
        sep = "::"
    else:
        sep = ","
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) < 2:
                continue
            try:
                if name == "az":
                    # Amazon CSV: item,user,rating,timestamp or user,item,...
                    users.append(hash(parts[1]) & 0x7FFFFFFF)
                    items.append(hash(parts[0]) & 0x7FFFFFFF)
                else:
                    users.append(int(parts[0]))
                    items.append(int(parts[1]))
            except ValueError:
                continue  # header or malformed row
    return np.asarray(users), np.asarray(items)


def load_dataset(config: DatasetConfig, data_root: str = "data") -> InteractionDataset:
    """Load a dataset per config: real files when present, else synthetic.

    ``config.scale`` shrinks (or grows) the synthetic preset's user /
    item / interaction counts proportionally; real files ignore scale.
    """
    name = config.name
    if name not in DATASET_STATS and name != "custom":
        raise ValueError(
            f"unknown dataset {name!r}; expected one of "
            f"{sorted(DATASET_STATS)} or 'custom'"
        )

    if name in _RAW_FILES:
        path = _find_raw_file(name, data_root)
        if path is not None:
            users, items = _parse_raw(name, path)
            return interactions_to_dataset(
                users,
                items,
                name=name,
                min_interactions_per_user=config.min_interactions_per_user,
                seed=config.seed,
            )

    stats = DATASET_STATS.get(name, DATASET_STATS["ml-100k"])
    num_users = max(16, int(round(stats.num_users * config.scale)))
    num_items = max(32, int(round(stats.num_items * config.scale)))
    # Interactions scale with the *square* of the linear scale so that the
    # user-item matrix density (Table VIII sparsity) is preserved; keeping
    # density faithful keeps the per-round benign gradient pressure on cold
    # target items faithful, which Eq. 11 shows drives attack/defense
    # behaviour.
    floor = num_users * max(config.min_interactions_per_user, 3) * 2
    num_interactions = max(floor, int(round(stats.num_interactions * config.scale**2)))
    return generate_longtail_dataset(
        num_users,
        num_items,
        num_interactions,
        popularity_exponent=config.popularity_exponent
        if config.name == "custom"
        else stats.popularity_exponent,
        min_interactions_per_user=config.min_interactions_per_user,
        name=name,
        seed=config.seed,
    )
