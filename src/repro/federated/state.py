"""Struct-of-arrays backing store for all benign client state.

The reference representation of the benign population is one Python
client object per user (``tests/reference/client.py``): a private
``(dim,)`` embedding, a private interaction array, an optional defense
regularizer and a handful of scalars.  At production user counts that
layout — not the round arithmetic — becomes the binding constraint:
construction spawns one RNG and one small array per user in a Python
loop, and every batched round would re-stack the per-object rows it
needs.

:class:`ClientStateStore` keeps the same state as flat arrays:

* ``user_embeddings`` — one dense ``(num_users, dim)`` matrix holding
  every private embedding, initialised bit-identically to the per-user
  ``spawn(seed, "client-init", u)`` draws via
  :func:`~repro.rng.spawn_normal_rows` (parity is asserted in the test
  suite).  Row ``u`` *is* user ``u``'s embedding; the batch engine
  gathers and scatters participant rows by fancy indexing, and
  analysis code reads the whole matrix zero-copy.
* ``train_indptr`` / ``train_indices`` — the users' positive-item
  lists in CSR form: user ``u`` owns
  ``train_indices[train_indptr[u]:train_indptr[u + 1]]``, a zero-copy
  slice identical to the ragged ``dataset.train_pos[u]`` array.
* per-client learning rates — the inconsistent-learning-rate scenario
  draws every client's fixed rate in one vectorised
  :func:`~repro.rng.spawn_first_uniform` pass (cached), bit-identical
  to the scalar ``spawn(seed, "client-lr", u)`` draws.
* ``miner`` — under the paper's client-side defense every benign
  client runs its own popular-item miner; all of them live in one
  :class:`~repro.attacks.mining.CohortMiner` over the user ids
  (``(num_users, num_items)`` accumulators, frozen sets, flags).  An
  undefended store has none.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.mining import CohortMiner
from repro.config import DefenseConfig
from repro.rng import spawn_first_uniform, spawn_normal_rows
from repro.stateful import Stateful

__all__ = [
    "ClientStoreBase",
    "ClientStateStore",
    "pack_csr",
    "row_composite_indices",
]


def row_composite_indices(user_ids: np.ndarray, dim: int) -> np.ndarray:
    """Flat indices of users' embedding rows in the C-order matrix.

    ``user_ids`` may arrive as int32 (e.g. from ``np.unique`` on 32-bit
    inputs); the product ``user_id * dim`` overflows int32 as soon as
    ``num_users * dim > 2**31`` (~33M users at dim 64), so the ids are
    upcast to int64 *before* the multiply — the same class of bug as
    the ``scatter_sum`` int32 overflow fixed for the item axis.
    """
    ids = np.asarray(user_ids).astype(np.int64, copy=False)
    offsets = np.arange(dim, dtype=np.int64)
    return (ids[:, None] * np.int64(dim) + offsets).reshape(-1)


def pack_csr(train_pos) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` int64 CSR arrays of ragged positive lists.

    A CSR-backed ragged facade (the shared-memory attach path) hands
    over its arrays directly instead of re-concatenating a million
    per-user slices.
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


class ClientStoreBase(Stateful):
    """What the dense and the sharded store share verbatim.

    Subclasses provide ``num_users`` / ``embedding_dim`` / ``positives``
    and the array access API; this base holds the defended clients'
    miner block, the argument checks and the run state: the embedding
    matrix plus the miner's arrays.
    """

    def __init__(self, seed: int, num_items: int, defense: DefenseConfig | None):
        self._seed = seed
        self.num_items = num_items
        #: The client-side defense every benign client trains with
        #: (``None``: undefended), and the one miner block all of
        #: their popular sets come from.
        self.defense = defense
        self.miner = (
            None
            if defense is None
            else CohortMiner(
                num_items, defense.mining_rounds, defense.num_popular, self.num_users
            )
        )
        self._client_lr_cache: tuple[tuple[float, float], np.ndarray] | None = None

    def close(self) -> None:
        """Release what the store holds outside the heap (nothing here)."""

    def snapshot_embeddings(self) -> np.ndarray:
        """Dense copy of the full embedding matrix (checkpoints)."""
        return np.array(self.embedding_block(0, self.num_users), order="C")

    def state(self) -> dict:
        return {
            "user_embeddings": self.snapshot_embeddings(),
            "miner": None if self.miner is None else self.miner.state(),
        }

    def restore(self, state: dict) -> None:
        self.load_embeddings(state["user_embeddings"])
        if self.miner is not None:
            self.miner.restore(state["miner"])

    def to_ragged(self) -> list[np.ndarray]:
        """Per-user positive-item arrays (copies) — CSR round-trip."""
        return [self.positives(user_id).copy() for user_id in range(self.num_users)]

    @staticmethod
    def _checked_lr_range(lr_range: tuple[float, float]) -> tuple[float, float]:
        low, high = lr_range
        if not 0 < low <= high:
            raise ValueError("client_lr_range must satisfy 0 < low <= high")
        return low, high

    def _check_snapshot_shape(self, matrix: np.ndarray) -> None:
        if matrix.shape != (self.num_users, self.embedding_dim):
            raise ValueError(
                f"embedding snapshot shape {matrix.shape} does not match "
                f"store ({self.num_users}, {self.embedding_dim})"
            )


class ClientStateStore(ClientStoreBase):
    """Flat-array state for the whole benign client population."""

    def __init__(
        self,
        user_embeddings: np.ndarray,
        train_indptr: np.ndarray,
        train_indices: np.ndarray,
        num_items: int,
        *,
        seed: int = 0,
        defense: DefenseConfig | None = None,
    ):
        if user_embeddings.ndim != 2:
            raise ValueError("user_embeddings must be (num_users, dim)")
        if len(train_indptr) != len(user_embeddings) + 1:
            raise ValueError(
                f"train_indptr has {len(train_indptr)} entries for "
                f"{len(user_embeddings)} users"
            )
        self.user_embeddings = user_embeddings
        self.train_indptr = train_indptr
        self.train_indices = train_indices
        super().__init__(seed, num_items, defense)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        train_pos: list[np.ndarray],
        num_items: int,
        embedding_dim: int,
        *,
        seed: int = 0,
        init_scale: float = 0.1,
        defense: DefenseConfig | None = None,
    ) -> "ClientStateStore":
        """Build the store for a dataset's ragged positive-item lists.

        The embedding matrix reproduces, row for row, the draws the
        object-per-user path makes (``spawn(seed, "client-init", u)``),
        so a store-backed simulation is bit-identical to the reference
        — it just derives all seeds, hashes all entropy pools and packs
        all interactions in vectorised passes.
        """
        num_users = len(train_pos)
        embeddings = spawn_normal_rows(
            seed,
            ("client-init",),
            np.arange(num_users),
            embedding_dim,
            scale=init_scale,
        )
        indptr, indices = pack_csr(train_pos)
        return cls(
            embeddings,
            indptr,
            indices,
            num_items,
            seed=seed,
            defense=defense,
        )

    # ------------------------------------------------------------------
    # Shape and slicing
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.user_embeddings)

    @property
    def embedding_dim(self) -> int:
        return self.user_embeddings.shape[1]

    # ------------------------------------------------------------------
    # Embedding access API
    #
    # Every reader/writer of user embeddings outside this module goes
    # through these methods (the batch engine, streaming eval,
    # checkpoints) so a sharded store can implement the
    # same surface without ever materialising one dense matrix.
    # ------------------------------------------------------------------

    def gather_rows(self, user_ids: np.ndarray) -> np.ndarray:
        """Copy of the users' embedding rows, in ``user_ids`` order.

        Implemented as a flat ``np.take`` over int64 composite indices
        (see :func:`row_composite_indices` for why the upcast matters);
        the gathered *values* are identical to fancy row indexing.
        """
        matrix = self.user_embeddings
        if not matrix.flags.c_contiguous:
            return matrix[np.asarray(user_ids)]
        flat = row_composite_indices(user_ids, matrix.shape[1])
        return np.take(matrix.reshape(-1), flat).reshape(
            len(user_ids), matrix.shape[1]
        )

    def scatter_rows(self, user_ids: np.ndarray, rows: np.ndarray) -> None:
        """Write one row per user id (ids must be distinct)."""
        matrix = self.user_embeddings
        if not matrix.flags.c_contiguous:
            matrix[np.asarray(user_ids)] = rows
            return
        flat = row_composite_indices(user_ids, matrix.shape[1])
        matrix.reshape(-1)[flat] = np.ascontiguousarray(rows).reshape(-1)

    def row(self, user_id: int) -> np.ndarray:
        """One user's embedding row (a live view for the dense store)."""
        return self.user_embeddings[user_id]

    def set_row(self, user_id: int, value: np.ndarray) -> None:
        """Overwrite one user's embedding row."""
        self.user_embeddings[user_id] = value

    def embedding_block(self, lo: int, hi: int) -> np.ndarray:
        """Users ``[lo, hi)`` as a ``(hi - lo, dim)`` matrix.

        Zero-copy for the dense store; the sharded store copies only
        when the block straddles a shard boundary.  Streaming eval
        walks the population through this accessor.
        """
        return self.user_embeddings[lo:hi]

    def load_embeddings(self, matrix: np.ndarray) -> None:
        """Restore the full embedding matrix from a checkpoint copy."""
        self._check_snapshot_shape(matrix)
        self.user_embeddings[...] = matrix

    def positives(self, user_id: int) -> np.ndarray:
        """User's positive items — a zero-copy CSR slice."""
        return self.train_indices[
            self.train_indptr[user_id] : self.train_indptr[user_id + 1]
        ]

    def positives_list(self, user_ids: np.ndarray) -> list[np.ndarray]:
        """CSR slices (zero-copy views) for a batch of users."""
        indptr = self.train_indptr
        indices = self.train_indices
        return [
            indices[indptr[user_id] : indptr[user_id + 1]]
            for user_id in user_ids
        ]

    def train_mask_block(self, lo: int, hi: int) -> np.ndarray:
        """Boolean ``(hi - lo, num_items)`` training-interaction mask.

        Equals ``dataset.train_mask()[lo:hi]`` without ever building
        the dense ``(num_users, num_items)`` matrix — the piece that
        lets evaluation stream over user blocks in bounded memory.
        """
        indptr = self.train_indptr
        block = np.zeros((hi - lo, self.num_items), dtype=bool)
        rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        block[rows, self.train_indices[indptr[lo] : indptr[hi]]] = True
        return block

    # ------------------------------------------------------------------
    # Per-client scalar state, vectorised
    # ------------------------------------------------------------------

    def client_lrs(self, lr_range: tuple[float, float]) -> np.ndarray:
        """Every client's fixed local learning rate, drawn in one pass.

        The inconsistent-learning-rate scenario (supplementary Table X)
        gives client ``u`` the rate ``exp(uniform(log low, log high))``
        from its private ``spawn(seed, "client-lr", u)`` stream; this
        draws all of them through the vectorised PCG64 path and caches
        the result (the draws are round-independent).  Bit-identical to
        the scalar reference, asserted by the parity suite.
        """
        low, high = self._checked_lr_range(lr_range)
        if self._client_lr_cache is None or self._client_lr_cache[0] != (low, high):
            draws = spawn_first_uniform(
                self._seed,
                ("client-lr",),
                np.arange(self.num_users),
                float(np.log(low)),
                float(np.log(high)),
            )
            self._client_lr_cache = ((low, high), np.exp(draws))
        return self._client_lr_cache[1]

    def client_lrs_for(
        self, lr_range: tuple[float, float], user_ids: np.ndarray
    ) -> np.ndarray:
        """The given users' fixed learning rates, in ``user_ids`` order.

        The subset accessor the engines use: a sharded store can serve
        it from per-shard segments without ever holding the full
        ``(num_users,)`` vector in one process.
        """
        return self.client_lrs(lr_range)[np.asarray(user_ids)]
