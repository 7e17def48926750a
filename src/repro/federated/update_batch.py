"""Dense whole-round upload representation for the batch-client engine.

One :class:`UpdateBatch` holds every participant's upload of one
communication round in the same ragged row-stack layout the batch
engine trains in: flat row-aligned ``item_ids`` / ``item_grads``
arrays in which client ``k`` owns a contiguous segment of
``lengths[k]`` rows, plus one ``(contributors, *param_shape)`` stack
per learnable interaction parameter.  It is the server-side dual of
the engine's training stacks — robust aggregators, update filters and
the audit log consume these tensors directly.  It is the package's only
upload representation; the per-client upload list the parity suites
compare against lives in ``tests/reference/updates.py``.

Layout invariants (everything downstream relies on them):

* clients appear in *upload order* — the order of the round's
  sampled participants, stragglers and late arrivals after them;
* within a client's segment, rows keep that client's upload row order
  (so any per-item regrouping that is stable in row order reproduces
  the per-client reference's contributor stacks exactly);
* ``param_owners`` lists, in upload order (so ascending), the client
  positions that contributed interaction-parameter gradients;
  ``param_stacks[i][j]`` is the ``i``-th parameter gradient of client
  ``param_owners[j]``.  Cutting and joining batches moves these
  positions — only :meth:`UpdateBatch.client_slice`,
  :meth:`UpdateBatch.concat` and :meth:`UpdateBatch.select_clients`
  do that;
* ``malicious`` is ground-truth bookkeeping — read by the audit log
  and analysis code only, never by a defense.

Filters return *new* batches (or the input unchanged); the arrays of a
batch handed to :meth:`repro.federated.server.Server.apply_batch` are
never mutated in place, so the engine may pass views of its round
stacks without copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from repro.models.base import segment_starts

__all__ = ["UpdateBatch"]


@dataclass
class UpdateBatch:
    """All client uploads of one round, in ragged row-stack layout."""

    user_ids: np.ndarray  # (clients,) int64, upload order
    item_ids: np.ndarray  # (total_rows,) int64
    item_grads: np.ndarray  # (total_rows, dim) floating; carries the
    #   model's own precision (float64 by default, float32 for
    #   reduced-precision models) — kernels must not assume float64
    lengths: np.ndarray  # (clients,) rows per client
    param_stacks: list[np.ndarray] = field(default_factory=list)
    param_owners: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    malicious: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=bool)
    )

    def __post_init__(self) -> None:
        if len(self.malicious) == 0 and len(self.user_ids):
            self.malicious = np.zeros(len(self.user_ids), dtype=bool)

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------

    @property
    def num_clients(self) -> int:
        return len(self.user_ids)

    @property
    def starts(self) -> np.ndarray:
        """Row offset of each client's segment (CSR-style)."""
        return segment_starts(self.lengths)

    def row_owners(self) -> np.ndarray:
        """Client position owning each row: ``(total_rows,)``."""
        return np.repeat(np.arange(self.num_clients), self.lengths)

    # ------------------------------------------------------------------
    # Norms (bit-identical to the per-client reference's)
    # ------------------------------------------------------------------

    def row_norms(self) -> np.ndarray:
        """Per-row L2 norms — matches ``np.linalg.norm(grads, axis=1)``
        computed per client, because the reduction is row-wise."""
        return np.linalg.norm(self.item_grads, axis=1)

    def client_total_norms(self) -> np.ndarray:
        """Per-client whole-upload L2 norm.

        Matches the per-client reference's ``total_norm`` bit for bit.
        The reference sums each client's squared gradients with one
        ``np.sum`` over its contiguous ``(rows, dim)`` segment — a
        pairwise reduction over ``rows * dim`` flat elements whose
        blocking depends only on the element count.  Clients with
        equal element counts therefore reduce identically, so they are
        gathered into one ``(clients, count)`` matrix and summed along
        its rows in a single call per distinct count.  Parameter
        tensors accumulate into their own running sum first and join
        the item total in one final addition — the association
        Python's ``sum()`` gives the reference property.
        """
        totals = np.empty(self.num_clients)
        flat = (self.item_grads**2).ravel()
        dim = self.item_grads.shape[1] if self.item_grads.ndim == 2 else 0
        flat_starts = self.starts * dim
        flat_lengths = self.lengths * dim
        for count in np.unique(flat_lengths):
            group = np.flatnonzero(flat_lengths == count)
            if count == 0:
                totals[group] = 0.0
                continue
            gather = flat_starts[group][:, None] + np.arange(int(count))[None, :]
            totals[group] = flat[gather].sum(axis=1)
        if len(self.param_owners):
            param_totals = np.zeros(self.num_clients)
            for j, owner in enumerate(self.param_owners):
                for stack in self.param_stacks:
                    param_totals[int(owner)] += np.sum(stack[j] ** 2)
            totals += param_totals
        return np.sqrt(totals)

    # ------------------------------------------------------------------
    # Transformations used by batched filters
    # ------------------------------------------------------------------

    def scaled_by_client(self, scales: np.ndarray) -> "UpdateBatch":
        """New batch with every client's whole upload scaled.

        ``scales`` has one float64 factor per client; a factor of
        exactly 1.0 leaves that client's values bit-identical (IEEE
        ``x * 1.0 == x``), mirroring the per-client reference's
        ``clipped`` returning the update untouched.
        """
        row_scales = np.repeat(scales, self.lengths)
        item_grads = self.item_grads * row_scales[:, None]
        param_stacks = []
        if self.param_stacks and len(self.param_owners):
            owner_scales = scales[self.param_owners]
            for stack in self.param_stacks:
                shape = (len(owner_scales),) + (1,) * (stack.ndim - 1)
                param_stacks.append(stack * owner_scales.reshape(shape))
        else:
            param_stacks = list(self.param_stacks)
        return replace(self, item_grads=item_grads, param_stacks=param_stacks)

    def discounted(self, factor: float) -> "UpdateBatch":
        """New batch with every gradient scaled by one staleness factor.

        The scalar is cast to each array's own dtype first, so
        reduced-precision uploads stay at their own precision — the
        same rule the cohort path uses for participation scales.
        """
        return replace(
            self,
            item_grads=self.item_grads * self.item_grads.dtype.type(factor),
            param_stacks=[
                stack * stack.dtype.type(factor) for stack in self.param_stacks
            ],
        )

    def arrays(self) -> dict:
        """The batch's fields by name: plain arrays a checkpoint holds
        without this class (``UpdateBatch(**arrays)`` rebuilds it)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def with_item_grads(self, item_grads: np.ndarray) -> "UpdateBatch":
        """New batch sharing every array except the item gradients."""
        return replace(self, item_grads=item_grads)

    def select_clients(self, keep: np.ndarray) -> "UpdateBatch":
        """New batch keeping only the clients where ``keep`` is True.

        ``keep`` is a ``(clients,)`` boolean mask.  Surviving clients
        keep their relative upload order and their exact gradient
        values (rows are gathered, never recomputed); ``param_owners``
        is remapped to the surviving positions and parameter stacks of
        removed clients are dropped.  An all-True mask returns the
        batch unchanged (same object, zero copies).
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        row_keep = np.repeat(keep, self.lengths)
        new_pos = np.cumsum(keep) - 1  # old position -> new position
        owner_keep = keep[self.param_owners] if len(self.param_owners) else keep[:0]
        param_stacks = [stack[owner_keep] for stack in self.param_stacks]
        param_owners = new_pos[self.param_owners[owner_keep]]
        return UpdateBatch(
            user_ids=self.user_ids[keep],
            item_ids=self.item_ids[row_keep],
            item_grads=self.item_grads[row_keep],
            lengths=self.lengths[keep],
            param_stacks=param_stacks,
            param_owners=np.asarray(param_owners, dtype=np.int64),
            malicious=self.malicious[keep],
        )

    # ------------------------------------------------------------------
    # Splicing — the one place that shifts ``param_owners`` positions
    # ------------------------------------------------------------------

    def client_slice(self, lo: int, hi: int) -> "UpdateBatch":
        """Clients ``[lo, hi)`` as a batch of zero-copy views.

        Relies on ``param_owners`` being ascending (the upload-order
        invariant above); the slice's owners are rebased to its own
        client positions.  The full range returns the batch unchanged
        (same object).
        """
        if lo == 0 and hi == self.num_clients:
            return self
        row_lo = int(self.lengths[:lo].sum())
        row_hi = row_lo + int(self.lengths[lo:hi].sum())
        owner_lo, owner_hi = np.searchsorted(self.param_owners, (lo, hi))
        return UpdateBatch(
            user_ids=self.user_ids[lo:hi],
            item_ids=self.item_ids[row_lo:row_hi],
            item_grads=self.item_grads[row_lo:row_hi],
            lengths=self.lengths[lo:hi],
            param_stacks=[
                stack[owner_lo:owner_hi] for stack in self.param_stacks
            ],
            param_owners=self.param_owners[owner_lo:owner_hi] - lo,
            malicious=self.malicious[lo:hi],
        )

    @classmethod
    def concat(cls, parts: Sequence["UpdateBatch"]) -> "UpdateBatch":
        """The parts' clients laid end to end, in ``parts`` order.

        Every array is one ``np.concatenate`` over the parts in order,
        so the result's bytes depend only on the sequence of client
        uploads, not on how it was cut into parts.  Parts without
        parameter stacks contribute none; the others' ``param_owners``
        shift by the number of clients before them.  A single part is
        returned as is (same object, zero copies).
        """
        if len(parts) == 1:
            return parts[0]
        offsets = segment_starts(
            np.array([part.num_clients for part in parts], dtype=np.int64)
        )
        with_params = [
            (part, offset)
            for part, offset in zip(parts, offsets)
            if part.param_stacks
        ]
        num_params = len(with_params[0][0].param_stacks) if with_params else 0
        return cls(
            user_ids=np.concatenate([part.user_ids for part in parts]),
            item_ids=np.concatenate([part.item_ids for part in parts]),
            item_grads=np.concatenate(
                [part.item_grads for part in parts], axis=0
            ),
            lengths=np.concatenate([part.lengths for part in parts]),
            param_stacks=[
                np.concatenate([part.param_stacks[i] for part, _ in with_params])
                for i in range(num_params)
            ],
            param_owners=np.concatenate(
                [part.param_owners + offset for part, offset in with_params]
            )
            if with_params
            else np.empty(0, dtype=np.int64),
            malicious=np.concatenate([part.malicious for part in parts]),
        )

    @classmethod
    def empty(cls, dim: int = 0) -> "UpdateBatch":
        """A batch of no clients (``dim`` columns of gradient rows)."""
        zero = np.empty(0, dtype=np.int64)
        return cls(zero, zero, np.empty((0, dim)), zero)
