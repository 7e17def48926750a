"""Core interaction dataset container with a leave-one-out split.

Users and items are dense integer ids. Interactions are implicit
feedback (a user interacted with an item or not), matching the paper's
setting: the ground-truth score ``x_ij`` is 1 for interacted pairs and
0 otherwise (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["InteractionDataset", "csr_rows", "hold_out_one", "pack_csr"]


def pack_csr(train_pos) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` int64 CSR arrays of ragged positive lists.

    ``indices[indptr[u]:indptr[u + 1]]`` equals ``train_pos[u]``.  A
    CSR-backed ragged facade (a million-user dataset) hands over
    its arrays directly instead of re-concatenating a million per-user
    slices.
    """
    if hasattr(train_pos, "csr_arrays"):
        indptr, indices = train_pos.csr_arrays()
        return (
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
        )
    num_users = len(train_pos)
    lengths = np.fromiter(
        (len(items) for items in train_pos), dtype=np.int64, count=num_users
    )
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = (
        np.ascontiguousarray(np.concatenate(train_pos), dtype=np.int64)
        if num_users
        else np.empty(0, dtype=np.int64)
    )
    return indptr, indices


def csr_rows(indptr: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """The list of row views ``indices[indptr[u]:indptr[u + 1]]``."""
    return [
        indices[lo:hi] for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]


def hold_out_one(
    indptr: np.ndarray, indices: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leave-one-out split of CSR rows: ``(indptr, indices, test_items)``.

    Row ``u``'s test item is its entry at ``rng.integers(row length)``;
    one array call draws what one scalar call per row, in row order,
    would.  The training rows keep the other entries in order.
    """
    held = indptr[:-1] + rng.integers(np.diff(indptr))
    keep = np.ones(len(indices), dtype=bool)
    keep[held] = False
    return indptr - np.arange(len(indptr)), indices[keep], indices[held]


@dataclass
class InteractionDataset:
    """Implicit-feedback dataset split leave-one-out per user.

    Attributes
    ----------
    name:
        Human-readable dataset name.
    num_users, num_items:
        Sizes of the dense id spaces.
    train_pos:
        ``train_pos[i]`` is the array of item ids user ``i`` interacted
        with, excluding the held-out test item. Sorted ascending.
    test_items:
        ``test_items[i]`` is the held-out item for user ``i`` (the
        leave-one-out protocol of He et al., used for HR@K), or ``-1``
        when the user has too few interactions to hold one out.
    """

    name: str
    num_users: int
    num_items: int
    train_pos: list[np.ndarray]
    test_items: np.ndarray
    _train_sets: list[set[int]] | None = field(default=None, repr=False)
    _train_csr: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.train_pos) != self.num_users:
            raise ValueError(
                f"train_pos has {len(self.train_pos)} entries for "
                f"{self.num_users} users"
            )
        if len(self.test_items) != self.num_users:
            raise ValueError(
                f"test_items has {len(self.test_items)} entries for "
                f"{self.num_users} users"
            )
        indptr, indices = self.train_csr()
        if len(indices) and (indices.min() < 0 or indices.max() >= self.num_items):
            first = np.flatnonzero((indices < 0) | (indices >= self.num_items))[0]
            user = int(np.searchsorted(indptr, first, side="right")) - 1
            raise ValueError(f"user {user} has out-of-range item ids")
        if len(self.test_items) and self.test_items.max() >= self.num_items:
            raise ValueError("test item id out of range")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_csr(
        cls,
        name: str,
        num_users: int,
        num_items: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        test_items: np.ndarray,
    ) -> "InteractionDataset":
        """Build zero-copy from CSR arrays (million-user datasets).

        ``train_pos`` becomes a :class:`~repro.federated.shards.CSRRaggedList`
        facade whose per-user entries are views into ``indices`` — no
        million-element Python list, no per-user copies.
        """
        from repro.federated.shards import CSRRaggedList

        if len(indptr) != num_users + 1:
            raise ValueError(
                f"indptr has {len(indptr)} entries for {num_users} users"
            )
        return cls(
            name,
            num_users,
            num_items,
            CSRRaggedList(indptr, indices),
            test_items,
            _train_csr=(indptr, indices),
        )

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def num_train_interactions(self) -> int:
        """Total number of (user, item) training interactions."""
        return int(sum(len(p) for p in self.train_pos))

    def popularity(self, include_test: bool = False) -> np.ndarray:
        """Per-item interaction counts (the paper's item popularity).

        Popularity is defined as the number of user interactions an item
        receives (Section IV-B). By default only training interactions
        are counted, which is everything a deployed FRS would see.
        """
        if self._train_csr is not None:
            # CSR fast path (each user's items are distinct, so one
            # global bincount equals the per-user accumulation).
            counts = np.bincount(
                self._train_csr[1], minlength=self.num_items
            ).astype(np.int64)
        else:
            counts = np.zeros(self.num_items, dtype=np.int64)
            for items in self.train_pos:
                counts[items] += 1
        if include_test:
            valid = self.test_items[self.test_items >= 0]
            np.add.at(counts, valid, 1)
        return counts

    def popularity_ranking(self) -> np.ndarray:
        """Item ids sorted from most popular to least popular."""
        counts = self.popularity()
        # Stable mergesort keeps ties in item-id order for determinism.
        return np.argsort(-counts, kind="stable")

    def popularity_rank_of(self) -> np.ndarray:
        """``rank[j]`` = popularity rank of item ``j`` (0 = most popular)."""
        ranking = self.popularity_ranking()
        rank = np.empty(self.num_items, dtype=np.int64)
        rank[ranking] = np.arange(self.num_items)
        return rank

    # ------------------------------------------------------------------
    # Membership helpers
    # ------------------------------------------------------------------

    def train_set(self, user: int) -> set[int]:
        """Set view of a user's training items (cached)."""
        if self._train_sets is None:
            self._train_sets = [set(p.tolist()) for p in self.train_pos]
        return self._train_sets[user]

    def train_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` CSR view of ``train_pos`` (cached).

        ``indices[indptr[u]:indptr[u + 1]]`` equals ``train_pos[u]``.
        """
        if self._train_csr is None:
            self._train_csr = pack_csr(self.train_pos)
        return self._train_csr

    def covered_users(self, items: np.ndarray) -> np.ndarray:
        """Users with >= 1 training interaction in ``items`` (ascending).

        One vectorised membership test over the CSR interaction arrays
        followed by a per-user segment reduction — no per-user Python
        loop (the paper's UCR metric and Table II coverage sets).
        """
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if items.size == 0 or self.num_users == 0:
            return np.zeros(0, dtype=np.int64)
        indptr, indices = self.train_csr()
        member = np.isin(indices, items)
        cumulative = np.concatenate(([0], np.cumsum(member)))
        per_user = cumulative[indptr[1:]] - cumulative[indptr[:-1]]
        return np.flatnonzero(per_user > 0).astype(np.int64)

    def coldest_items(self, count: int) -> np.ndarray:
        """The ``count`` least-popular items (typical attack targets)."""
        return self.popularity_ranking()[::-1][:count].copy()
