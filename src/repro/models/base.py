"""Abstract recommender model interface shared by MF-FRS and DL-FRS.

The interface is deliberately low-level: callers pass explicit user
vectors and item vectors, so the same code paths serve

* benign client training (real user embedding, local item batch),
* PIECK-UEA, which substitutes *popular item embeddings* for the
  private user embeddings it cannot see (Eq. 10), and
* evaluation, which scores whole user x item matrices.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import kernels

__all__ = [
    "GradientBundle",
    "BatchStepResult",
    "RecommenderModel",
    "build_model",
    "segment_starts",
    "segment_sums",
]


#: User blocks whose full score block takes at most this many bytes are
#: counted from full scores by every model: scoring a small block
#: outright costs less than a pruned walk's per-tile and per-candidate
#: overheads (a 189 x 336 ml-100k MF block evaluates in about half the
#: time of its walk).
_FULL_SCORE_BYTES = 2 * 2**20


def segment_starts(lengths: np.ndarray) -> np.ndarray:
    """Row offset of each client's segment in a ragged row-stack.

    The single definition of the CSR-style offset rule used everywhere
    a ragged stack is consumed (NCF's segmented backward, the batch
    engine's upload splicing).
    """
    return np.concatenate(([0], np.cumsum(lengths)[:-1]))


def segment_sums(
    rows: np.ndarray, lengths: np.ndarray, dim: int
) -> np.ndarray:
    """Sum each client's contiguous row segment of a ragged stack.

    Equivalent to ``rows[start_k : start_k + lengths[k]].sum(axis=0)``
    per client, because that is the per-client reduction the loop
    engine performs.  Dispatched through :mod:`repro.kernels`: both
    backends accumulate each segment's rows sequentially in row order
    (NumPy's outer-axis summation order), making each segment's result
    bit-identical to the reference regardless of what surrounds it.
    """
    return kernels.segment_sums(rows, lengths, dim)


@dataclass
class GradientBundle:
    """Gradients from one backward pass through the interaction function.

    ``users`` / ``items`` are per-row gradients w.r.t. the user / item
    vectors fed to ``forward``; ``params`` are gradients of the global
    learnable interaction parameters (empty for MF-FRS, whose dot
    product is fixed — the key fact that defeats A-ra / A-hum there).
    """

    users: np.ndarray
    items: np.ndarray
    params: list[np.ndarray] = field(default_factory=list)


@dataclass
class BatchStepResult:
    """Gradients of one vectorised local step over stacked clients.

    The batch-client engine stacks every sampled participant's local
    batch into one ragged row-stack (client ``k`` owns a contiguous
    segment of ``lengths[k]`` rows); this is the per-client-resolved
    result.  ``user_grads`` is ``(clients, dim)`` (already summed over
    each client's rows), ``item_grads`` is ``(total_rows, dim)``
    row-aligned with the stacked item ids, and ``param_grads`` holds
    one stacked array of shape ``(clients, *param_shape)`` per
    learnable interaction parameter — the same per-client values the
    reference loop in ``tests/reference`` uploads one client at a time.
    """

    user_grads: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)


class RecommenderModel(ABC):
    """Base model: item embedding table + interaction function.

    The *global model* of the FRS is exactly this object's state: the
    item embedding matrix, plus (for DL-FRS) the MLP tower parameters.
    User embeddings never live here — they are private to clients
    (Section III-A).
    """

    def __init__(self, num_items: int, embedding_dim: int):
        self.num_items = num_items
        self.embedding_dim = embedding_dim
        self.item_embeddings = np.zeros((num_items, embedding_dim))

    # ------------------------------------------------------------------
    # Interaction function
    # ------------------------------------------------------------------

    @abstractmethod
    def forward(
        self, user_vecs: np.ndarray, item_vecs: np.ndarray
    ) -> tuple[np.ndarray, Any]:
        """Compute logits for row-aligned user/item vector pairs.

        ``user_vecs`` may be a single (d,) vector broadcast over all
        items, or an (n, d) batch aligned with ``item_vecs`` (n, d).
        Returns ``(logits, cache)``; the predicted score of the paper
        is ``sigmoid(logits)``.
        """

    @abstractmethod
    def backward(self, cache: Any, dlogits: np.ndarray) -> GradientBundle:
        """Backprop logit gradients to user/item/parameter gradients."""

    def item_grads(self, cache: Any, dlogits: np.ndarray) -> np.ndarray:
        """The ``items`` of :meth:`backward`, the same bytes; a model
        with interaction parameters skips their gradients."""
        return self.backward(cache, dlogits).items

    def user_grads(self, cache: Any, dlogits: np.ndarray) -> np.ndarray:
        """The ``users`` of :meth:`backward`, likewise."""
        return self.backward(cache, dlogits).users

    @abstractmethod
    def score_matrix(self, user_matrix: np.ndarray) -> np.ndarray:
        """Logits for every (user, item) pair: shape (U, num_items)."""

    def score_blocks(self, user_matrix: np.ndarray, block_users: int):
        """Yield ``(lo, hi, scores)`` score blocks over user-row ranges.

        The streaming-evaluation hook: callers that only reduce over
        scores (ranking metrics) iterate blocks of at most
        ``block_users`` rows, keeping peak memory at
        ``O(block x num_items)`` instead of ``O(U x num_items)``.
        Scoring is row-wise in every model, so block boundaries move
        no score by more than the last ulp (BLAS picks its kernel by
        operand shape); the default simply calls :meth:`score_matrix`
        per slice and models with cheaper block paths may override it.
        """
        if block_users <= 0:
            raise ValueError("block_users must be positive")
        for lo in range(0, len(user_matrix), block_users):
            hi = min(lo + block_users, len(user_matrix))
            yield lo, hi, self.score_matrix(user_matrix[lo:hi])

    def ranking_counts(self, user_matrix, block_users: int, tally) -> None:
        """Count ER@K and HR@K over all users into ``tally``.

        ``tally`` is a :class:`~repro.metrics.ranking.RankingTally`.
        The default scores every user block in full
        (:meth:`score_blocks`) and counts it with
        ``tally.count_scores``; a model with a cheaper exact path
        overrides this with :meth:`_walked_counts` (MF's and NCF's
        pruned walks).
        """
        for lo, hi, scores in self.score_blocks(user_matrix, block_users):
            tally.add(*tally.count_scores(lo, hi, scores))
            # Freed before the next block is scored: one alive at a time.
            del scores

    def _walked_counts(
        self, user_matrix, block_users: int, tally, prepare, walk
    ) -> None:
        """:meth:`ranking_counts` by an exact pruned walk.

        Blocks of ``block_users`` rows whose full score block fits in
        ``_FULL_SCORE_BYTES`` take the full path.  Otherwise the items
        are prepared once per call (``prepare()``) and each block is
        counted by ``walk(items, users, tally, lo, hi)``, which scores
        only the pairs that can decide it.  A block the walk cannot
        certify (``None``) is scored in full, at the same boundaries as
        the full path, and counted in ``tally.fallback_blocks`` — so
        the counts equal the full path's exactly.
        """
        if block_users <= 0:
            raise ValueError("block_users must be positive")
        largest = min(block_users, len(user_matrix))
        if 8 * largest * self.num_items <= _FULL_SCORE_BYTES:
            RecommenderModel.ranking_counts(self, user_matrix, block_users, tally)
            return
        items = prepare()
        for lo in range(0, len(user_matrix), block_users):
            hi = min(lo + block_users, len(user_matrix))
            users = user_matrix[lo:hi]
            counts = walk(items, users, tally, lo, hi)
            if counts is None:
                tally.fallback_blocks += 1
                counts = tally.count_scores(lo, hi, self.score_matrix(users))
            tally.add(*counts)

    # ------------------------------------------------------------------
    # Global parameter plumbing (item table + interaction parameters)
    # ------------------------------------------------------------------

    def interaction_params(self) -> list[np.ndarray]:
        """Learnable interaction-function parameters (live views)."""
        return []

    # ------------------------------------------------------------------
    # Vectorised batch-client training step
    # ------------------------------------------------------------------

    def batch_local_step(
        self,
        user_vecs: np.ndarray,
        item_vecs: np.ndarray,
        labels: np.ndarray,
        lengths: np.ndarray,
    ) -> BatchStepResult:
        """One BCE local step for a whole stack of clients at once.

        ``user_vecs`` is ``(clients, dim)`` (one private embedding per
        client); ``item_vecs`` ``(total_rows, dim)`` and ``labels``
        ``(total_rows,)`` are the ragged row-stack of every client's
        local batch, client ``k`` owning a contiguous segment of
        ``lengths[k]`` rows.

        The default implementation repeats each user vector over its
        segment and reuses :meth:`forward` / :meth:`backward` on the
        whole stack — one shared code path for every model whose
        interaction function is row-wise (MF's dot product, the MLP
        tower, NCF).  All row-wise arithmetic is bit-identical to the
        per-client loop; per-client reductions (the user-gradient sums)
        run over each client's exact row segment, so the result matches
        the loop engine bit for bit.  Models with learnable interaction
        parameters must override this to resolve ``params`` per client
        (see :class:`~repro.models.ncf.NCFModel`).
        """
        from repro.models.losses import bce_grad_segmented

        if self.interaction_params():
            raise NotImplementedError(
                "models with learnable interaction parameters must "
                "override batch_local_step to resolve per-client "
                "parameter gradients"
            )
        flat_users = np.repeat(user_vecs, lengths, axis=0)
        logits, cache = self.forward(flat_users, item_vecs)
        dlogits = bce_grad_segmented(logits, labels, lengths)
        bundle = self.backward(cache, dlogits)
        user_grads = segment_sums(bundle.users, lengths, user_vecs.shape[1])
        return BatchStepResult(
            user_grads=user_grads, item_grads=bundle.items, param_grads=[]
        )

    def batch_local_step_bpr(
        self,
        user_vecs: np.ndarray,
        pos_item_vecs: np.ndarray,
        neg_item_vecs: np.ndarray,
        lengths: np.ndarray,
    ) -> BatchStepResult:
        """One BPR local step for a whole stack of clients at once.

        ``pos_item_vecs`` / ``neg_item_vecs`` are the ragged row-stacks
        of every client's paired positive / negative item vectors
        (client ``k`` owns ``lengths[k]`` pairs in each).  Runs the two
        row-wise forward passes and the pairwise-loss backward over all
        clients' pairs in one call, with per-client reductions (the
        user-gradient sums) over each client's exact row segments —
        the same arithmetic, in the same order, as the per-client
        reference's BPR step (``tests/reference/client.py``).

        Following the reference BPR protocol, interaction-parameter
        gradients are *not* uploaded (``param_grads`` is empty), so
        this single implementation serves every model; the returned
        ``item_grads`` are the positive rows followed by the negative
        rows, each aligned with its input stack — duplicate-item
        merging is the engine's job, where the item ids live.
        """
        from repro.models.losses import bpr_grad_segmented

        dim = user_vecs.shape[1]
        flat_users = np.repeat(user_vecs, lengths, axis=0)
        pos_logits, pos_cache = self.forward(flat_users, pos_item_vecs)
        neg_logits, neg_cache = self.forward(flat_users, neg_item_vecs)
        dpos, dneg = bpr_grad_segmented(pos_logits, neg_logits, lengths)
        pos_bundle = self.backward(pos_cache, dpos)
        neg_bundle = self.backward(neg_cache, dneg)
        user_grads = segment_sums(
            pos_bundle.users, lengths, dim
        ) + segment_sums(neg_bundle.users, lengths, dim)
        item_grads = np.concatenate([pos_bundle.items, neg_bundle.items], axis=0)
        return BatchStepResult(
            user_grads=user_grads, item_grads=item_grads, param_grads=[]
        )

    def apply_item_update(self, item_ids: np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` rows to the given item embeddings in place."""
        np.add.at(self.item_embeddings, item_ids, delta)

    def apply_param_update(self, deltas: list[np.ndarray]) -> None:
        """Add deltas to the interaction parameters in place."""
        params = self.interaction_params()
        if len(deltas) != len(params):
            raise ValueError(
                f"expected {len(params)} parameter deltas, got {len(deltas)}"
            )
        for param, delta in zip(params, deltas):
            param += delta

    def snapshot_items(self) -> np.ndarray:
        """Copy of the item embedding matrix (what a client 'receives')."""
        return self.item_embeddings.copy()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _pair_user_vecs(user_vecs: np.ndarray, item_vecs: np.ndarray) -> np.ndarray:
        """Broadcast a single user vector over an item batch if needed."""
        if user_vecs.ndim == 1:
            return np.broadcast_to(user_vecs, item_vecs.shape)
        if user_vecs.shape != item_vecs.shape:
            raise ValueError(
                f"user batch {user_vecs.shape} does not align with item "
                f"batch {item_vecs.shape}"
            )
        return user_vecs


def build_model(
    kind: str,
    num_items: int,
    embedding_dim: int,
    *,
    mlp_layers: tuple[int, ...] = (32, 16),
    init_scale: float = 0.1,
    seed: int = 0,
) -> RecommenderModel:
    """Factory for the two base models evaluated in the paper."""
    from repro.models.mf import MFModel
    from repro.models.ncf import NCFModel

    if kind == "mf":
        return MFModel(num_items, embedding_dim, init_scale=init_scale, seed=seed)
    if kind == "ncf":
        return NCFModel(
            num_items,
            embedding_dim,
            mlp_layers=mlp_layers,
            init_scale=init_scale,
            seed=seed,
        )
    raise ValueError(f"unknown model kind {kind!r}; expected 'mf' or 'ncf'")
