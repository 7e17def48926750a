"""Federated server: user sampling, aggregation, global model update.

The server implements step 1 and step 4 of the training round in
Section III-A: it randomly selects a user batch, and after receiving
uploads it updates every item embedding (and, for DL-FRS, every
interaction parameter) by ``param <- param - eta * Agg(grads)``.

An optional *update filter* lets server-side defenses such as
NormBound transform the round's uploads before aggregation.

:meth:`Server.apply_batch` is the one ingestion path: the whole round
arrives as one dense :class:`UpdateBatch`; audit, filters and
aggregation (one fused :func:`~repro.federated.aggregation.scatter_sum`
and a single dense SGD step under plain sum, grouped
``aggregate_stacks`` kernels under robust aggregation) all run on the
stacked tensors.  The per-client reference the parity suites compare
it against (one upload object per participant, gradients grouped
per item, one ``Agg`` call per touched item) lives in
``tests/reference/``.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.federated.aggregation import Aggregator, SumAggregator, scatter_sum
from repro.federated.audit import ServerAuditLog
from repro.federated.update_batch import UpdateBatch
from repro.models.base import RecommenderModel
from repro.rng import spawn
from repro.stateful import Stateful, state_of

__all__ = ["Server"]


class UpdateFilter(Protocol):
    """A server-side defense that transforms a round's uploads."""

    def filter_batch(self, batch: UpdateBatch) -> UpdateBatch: ...


class Server(Stateful):
    """Coordinates rounds and applies aggregated updates to the model.

    Its run state is the counters declared in ``__init__``, the global
    model's parameters and the audit log's records.
    """

    #: Rounds ingested per client rather than batched: always 0, as
    #: every round goes through :meth:`apply_batch`.  Kept because the
    #: perf ledger's runner reports it.
    materialized_rounds = 0

    STATE = (
        "rejected_nonfinite",
        "rejected_oversized",
        "quorum_failed_rounds",
        "quorum_dropped_uploads",
    )

    def __init__(
        self,
        model: RecommenderModel,
        lr: float,
        *,
        aggregator: Aggregator | None = None,
        update_filter: UpdateFilter | None = None,
        audit_log: ServerAuditLog | None = None,
        seed: int = 0,
        min_quorum: int = 0,
        max_upload_norm: float = 0.0,
    ):
        if update_filter is not None and not hasattr(update_filter, "filter_batch"):
            raise TypeError(
                f"update filter {type(update_filter).__name__} has no "
                f"filter_batch method; the server ingests whole rounds as "
                f"an UpdateBatch"
            )
        self.model = model
        self.lr = lr
        self.aggregator = aggregator if aggregator is not None else SumAggregator()
        self.update_filter = update_filter
        self.audit_log = audit_log
        self._seed = seed
        #: Minimum accepted uploads a round needs to be aggregated at
        #: all; a round below quorum is skipped entirely (counted in
        #: ``quorum_failed_rounds``) rather than letting a handful of
        #: survivors take an outsized model step.  0 disables the check.
        self.min_quorum = min_quorum
        #: Whole-upload L2 norm ceiling enforced by the sanity gate
        #: (0 disables).  Unlike the NormBound *defense*, which clips
        #: and keeps, the gate *rejects*: a transport-corrupted upload
        #: is garbage, not a large-but-honest gradient.
        self.max_upload_norm = max_upload_norm
        #: Uploads rejected by the always-on sanity gate because they
        #: carried non-finite gradient values (an attacker — or a
        #: corrupted transport — sending a single NaN row would
        #: otherwise poison the aggregate irrecoverably under plain
        #: FedAvg: NaN propagates through every future round).
        self.rejected_nonfinite = 0
        #: Uploads rejected for exceeding ``max_upload_norm``.
        self.rejected_oversized = 0
        #: Rounds skipped because fewer than ``min_quorum`` uploads
        #: survived the sanity gate.
        self.quorum_failed_rounds = 0
        #: Uploads discarded by those skipped rounds.
        self.quorum_dropped_uploads = 0

    def _model_params(self) -> list[np.ndarray]:
        return [self.model.item_embeddings, *self.model.interaction_params()]

    def state(self) -> dict:
        return {
            **super().state(),
            "model": self._model_params(),
            "audit_log": state_of(self.audit_log),
        }

    def restore(self, state: dict) -> None:
        """Load counters, and model parameters in place.

        A saved audit log restores into this server's log, which is
        created if the server was built without one.
        """
        super().restore(state)
        for param, saved in zip(self._model_params(), state["model"], strict=True):
            param[...] = saved
        if state["audit_log"] is not None:
            if self.audit_log is None:
                self.audit_log = ServerAuditLog()
            self.audit_log.restore(state["audit_log"])

    @property
    def rejected_uploads(self) -> int:
        """Total uploads rejected by the sanity gate."""
        return self.rejected_nonfinite + self.rejected_oversized

    def sample_users(self, num_users_total: int, batch: int, round_idx: int) -> np.ndarray:
        """Uniformly sample the participant set U_r for a round."""
        rng = spawn(self._seed, "server-sample", round_idx)
        batch = min(batch, num_users_total)
        return rng.choice(num_users_total, size=batch, replace=False)

    def apply_batch(self, batch: UpdateBatch) -> None:
        """Apply one round from a dense :class:`UpdateBatch`.

        The audit log records from the stacks, the update filter
        transforms them, and aggregation either collapses into one
        fused scatter (plain-sum aggregators) or runs the grouped robust
        kernels (:meth:`_apply_item_batch_grouped`).  Bit-identical to
        the per-client reference on the equivalent materialised updates
        — the layout invariants of :class:`UpdateBatch` plus the
        lane-stable aggregator kernels guarantee it, and the parity
        suite in ``tests/test_batch_defended.py`` asserts it for every
        registry defense.
        """
        if self.audit_log is not None and batch.num_clients:
            # Raw uploads, before any defense filter touches them, so
            # the record reflects what clients actually sent.
            self.audit_log.record_batch(batch)
        batch = self._gate_batch(batch)
        if self._below_quorum(batch.num_clients):
            return
        if batch.num_clients == 0:
            return
        if self.update_filter is not None:
            batch = self.update_filter.filter_batch(batch)

        if self.aggregator.supports_scatter:
            if len(batch.item_ids):
                buffer = scatter_sum(
                    batch.item_ids, batch.item_grads, self.model.num_items
                )
                self.model.item_embeddings += -self.lr * buffer
        else:
            self._apply_item_batch_grouped(batch)
        self._apply_param_batch(batch)

    # ------------------------------------------------------------------
    # Sanity gate + quorum (graceful degradation)
    # ------------------------------------------------------------------

    def _below_quorum(self, accepted: int) -> bool:
        """True (and counted) if the round must be skipped for quorum."""
        if self.min_quorum > 0 and accepted < self.min_quorum:
            self.quorum_failed_rounds += 1
            self.quorum_dropped_uploads += accepted
            return True
        return False

    def _gate_batch(self, batch: UpdateBatch) -> UpdateBatch:
        """Reject non-finite and oversized uploads from a round batch.

        The non-finite check is always on — a single NaN row reaching
        ``scatter_sum`` poisons the embedding table for every future
        round.  A clean round (the overwhelmingly common case) takes
        one vectorised ``isfinite`` reduction and returns the batch
        unchanged, same object, zero copies — keeping the batched path
        bit-identical to the ungated engine.

        Rejection is per *client*: one bad row discards that client's
        whole upload (items and parameters).
        """
        if batch.num_clients == 0:
            return batch
        # One-pass screen: a sum is non-finite iff some element is (a
        # finite-overflow inf only sends us down the slow path, which
        # then finds nothing to reject) — no size-of-batch bool
        # temporary on the clean-round fast path.
        all_finite = bool(np.isfinite(batch.item_grads.sum())) and all(
            bool(np.isfinite(stack.sum())) for stack in batch.param_stacks
        )
        if all_finite and not self.max_upload_norm > 0:
            return batch
        keep = np.ones(batch.num_clients, dtype=bool)
        if not all_finite:
            row_bad = ~np.isfinite(batch.item_grads).all(axis=1)
            if row_bad.any():
                bad_counts = np.bincount(
                    batch.row_owners()[row_bad], minlength=batch.num_clients
                )
                keep &= bad_counts == 0
            for j, owner in enumerate(batch.param_owners):
                if keep[int(owner)] and any(
                    not np.isfinite(stack[j]).all() for stack in batch.param_stacks
                ):
                    keep[int(owner)] = False
            self.rejected_nonfinite += int((~keep).sum())
        if self.max_upload_norm > 0:
            # Non-finite clients are already gone from `keep`; their NaN
            # norms never reach the comparison.
            oversized = keep & (batch.client_total_norms() > self.max_upload_norm)
            self.rejected_oversized += int(oversized.sum())
            keep &= ~oversized
        return batch.select_clients(keep)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_item_batch_grouped(self, batch: UpdateBatch) -> None:
        """Robust aggregation over per-item contributor stacks, batched.

        A stable sort by item id regroups the flat round rows into
        per-item contributor stacks whose internal order is the upload
        order — exactly the stacks the per-client reference builds one
        dict entry at a time.  Items sharing a contributor count
        form dense ``(groups, count, dim)`` tensors that go through
        the aggregator's grouped kernel in one call each; distinct
        counts are few (bounded by the round's activity profile), so a
        defended round costs a handful of vectorised kernel calls
        instead of one Python ``aggregate`` per touched item.
        """
        if len(batch.item_ids) == 0:
            return
        order = np.argsort(batch.item_ids, kind="stable")
        sorted_ids = batch.item_ids[order]
        sorted_grads = batch.item_grads[order]
        # Group boundaries straight off the sorted ids (np.unique would
        # sort a second time).
        change = np.empty(len(sorted_ids), dtype=bool)
        change[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=change[1:])
        first_rows = np.flatnonzero(change)
        unique_ids = sorted_ids[first_rows]
        counts = np.diff(np.append(first_rows, len(sorted_ids)))
        deltas = np.empty((len(unique_ids), self.model.embedding_dim))
        for count in np.unique(counts):
            group = np.flatnonzero(counts == count)
            gather = first_rows[group][:, None] + np.arange(count)[None, :]
            deltas[group] = self.aggregator.aggregate_stacks(sorted_grads[gather])
        deltas *= -self.lr
        self.model.apply_item_update(unique_ids, deltas)

    def _apply_param_batch(self, batch: UpdateBatch) -> None:
        params = self.model.interaction_params()
        if not params or not batch.param_stacks or not len(batch.param_owners):
            return
        deltas: list[np.ndarray] = []
        for param, stack in zip(params, batch.param_stacks):
            if stack.shape[1:] != param.shape:
                raise ValueError(
                    f"parameter gradient shape {stack.shape[1:]} does not "
                    f"match parameter {param.shape}"
                )
            deltas.append(-self.lr * self.aggregator.aggregate(stack))
        self.model.apply_param_update(deltas)
