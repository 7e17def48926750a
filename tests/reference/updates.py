"""Per-client twins of the package's batched server-side stages.

Each function here consumes or produces one :class:`ClientUpdate` per
participant, where the package works on a whole round's
:class:`~repro.federated.update_batch.UpdateBatch`:

* :class:`ClientUpdate` — one client's upload, with ``total_norm`` and
  ``clipped`` (the twins of ``UpdateBatch.client_total_norms`` and
  ``scaled_by_client``);
* :func:`filter_updates` — ``filter_batch`` of the server's update
  filters (``NormBoundFilter``, ``ItemScaleClip``);
* :func:`apply_updates` — :meth:`Server.apply_batch
  <repro.federated.server.Server.apply_batch>`: sanity gate, quorum,
  update filter, then gradients grouped per item with one ``Agg`` call
  per touched item;
* :func:`record` — :meth:`ServerAuditLog.record_batch
  <repro.federated.audit.ServerAuditLog.record_batch>`;
* :func:`apply_to_updates` — :meth:`UploadTransit.sync_round
  <repro.federated.faults.UploadTransit.sync_round>`;
* :func:`from_updates` / :func:`to_updates` — a list of uploads to a
  batch and back.

They operate on the package's own objects (server counters, audit
records, the transit's fault schedule and parked uploads), so a reference run
and a batched run are compared on the same state.  The arithmetic is the
executable specification the parity suites hold the batched path to,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attacks.cohort import clip_scale
from repro.defenses.coordinated import ItemScaleClip, _lower_median
from repro.defenses.robust import NormBoundFilter
from repro.federated.audit import ItemRoundRecord, ServerAuditLog
from repro.federated.faults import UploadTransit
from repro.federated.server import Server
from repro.federated.update_batch import UpdateBatch

__all__ = [
    "ClientUpdate",
    "apply_to_updates",
    "apply_updates",
    "filter_updates",
    "from_updates",
    "record",
    "to_updates",
]

#: Per-client fault kinds of :func:`apply_to_updates`.
FAULT_NONE, FAULT_DROPOUT, FAULT_STRAGGLER, FAULT_CORRUPTION = range(4)


@dataclass
class ClientUpdate:
    """One client's upload for one communication round.

    ``item_ids`` / ``item_grads`` are row-aligned; ``param_grads``
    covers the learnable interaction function (DL-FRS only; empty list
    means the client does not contribute to interaction parameters).
    ``malicious`` is ground-truth bookkeeping used only by analysis
    code, never by the server or defenses.
    """

    user_id: int
    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)
    malicious: bool = False

    def __post_init__(self) -> None:
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        # Floating gradients upload at the model's own precision;
        # anything else is promoted to float64.
        grads = np.asarray(self.item_grads)
        if not np.issubdtype(grads.dtype, np.floating):
            grads = grads.astype(np.float64)
        self.item_grads = grads
        if self.item_grads.ndim != 2 or len(self.item_ids) != len(self.item_grads):
            raise ValueError(
                f"item_grads {self.item_grads.shape} does not align with "
                f"{len(self.item_ids)} item ids"
            )
        if len(np.unique(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids in a single update")

    @property
    def total_norm(self) -> float:
        """L2 norm of the full uploaded gradient (items + parameters)."""
        total = float(np.sum(self.item_grads**2))
        total += sum(float(np.sum(g**2)) for g in self.param_grads)
        return float(np.sqrt(total))

    def clipped(self, max_norm: float) -> "ClientUpdate":
        """Copy of this update clipped to a maximum total L2 norm."""
        scale = clip_scale(self.item_grads, self.param_grads, max_norm)
        if scale is None:
            return self
        return ClientUpdate(
            user_id=self.user_id,
            item_ids=self.item_ids.copy(),
            item_grads=self.item_grads * scale,
            param_grads=[g * scale for g in self.param_grads],
            malicious=self.malicious,
        )


# ----------------------------------------------------------------------
# ClientUpdate list <-> UpdateBatch
# ----------------------------------------------------------------------


def from_updates(updates: Sequence[ClientUpdate]) -> UpdateBatch:
    """Stack a list of per-client uploads into one dense batch."""
    if not updates:
        return UpdateBatch.empty()
    owners = [k for k, u in enumerate(updates) if u.param_grads]
    param_stacks: list[np.ndarray] = []
    if owners:
        num_params = len(updates[owners[0]].param_grads)
        param_stacks = [
            np.stack([updates[k].param_grads[i] for k in owners])
            for i in range(num_params)
        ]
    return UpdateBatch(
        user_ids=np.array([u.user_id for u in updates], dtype=np.int64),
        item_ids=np.concatenate([u.item_ids for u in updates]),
        item_grads=np.concatenate([u.item_grads for u in updates], axis=0),
        lengths=np.array([len(u.item_ids) for u in updates], dtype=np.int64),
        param_stacks=param_stacks,
        param_owners=np.array(owners, dtype=np.int64),
        malicious=np.array([u.malicious for u in updates], dtype=bool),
    )


def _trusted(
    user_id: int,
    item_ids: np.ndarray,
    item_grads: np.ndarray,
    param_grads: list[np.ndarray],
    malicious: bool,
) -> ClientUpdate:
    """A ``ClientUpdate`` built without re-validating batch rows.

    The rows already passed upload validation when the batch was
    assembled; the per-client duplicate scan is skipped.
    """
    update = ClientUpdate.__new__(ClientUpdate)
    update.user_id = user_id
    update.item_ids = item_ids
    update.item_grads = item_grads
    update.param_grads = param_grads
    update.malicious = malicious
    return update


def to_updates(batch: UpdateBatch) -> list[ClientUpdate]:
    """Materialise a batch's per-client uploads (arrays are copied)."""
    param_rows: dict[int, list[np.ndarray]] = {}
    for j, owner in enumerate(batch.param_owners):
        param_rows[int(owner)] = [stack[j].copy() for stack in batch.param_stacks]
    updates = []
    starts = batch.starts
    for k in range(batch.num_clients):
        seg = slice(int(starts[k]), int(starts[k]) + int(batch.lengths[k]))
        updates.append(
            _trusted(
                user_id=int(batch.user_ids[k]),
                item_ids=batch.item_ids[seg].copy(),
                item_grads=batch.item_grads[seg].copy(),
                param_grads=param_rows.get(k, []),
                malicious=bool(batch.malicious[k]),
            )
        )
    return updates


# ----------------------------------------------------------------------
# Audit log
# ----------------------------------------------------------------------


def record(log: ServerAuditLog, updates: Sequence[ClientUpdate]) -> None:
    """Append one round's per-item contribution statistics to ``log``."""
    benign_counts: dict[int, int] = {}
    malicious_counts: dict[int, int] = {}
    benign_norms: dict[int, float] = {}
    malicious_norms: dict[int, float] = {}
    for update in updates:
        counts = malicious_counts if update.malicious else benign_counts
        norms = malicious_norms if update.malicious else benign_norms
        row_norms = np.linalg.norm(update.item_grads, axis=1)
        for item_id, norm in zip(update.item_ids, row_norms):
            item_id = int(item_id)
            counts[item_id] = counts.get(item_id, 0) + 1
            norms[item_id] = norms.get(item_id, 0.0) + float(norm)
    for item_id in sorted(set(benign_counts) | set(malicious_counts)):
        log.records.append(
            ItemRoundRecord(
                round_idx=log._round_idx,
                item_id=item_id,
                benign_count=benign_counts.get(item_id, 0),
                malicious_count=malicious_counts.get(item_id, 0),
                benign_norm=benign_norms.get(item_id, 0.0),
                malicious_norm=malicious_norms.get(item_id, 0.0),
            )
        )
    log._round_idx += 1


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


def apply_to_updates(
    transit: UploadTransit,
    updates: list[ClientUpdate],
    sampled: Sequence[int],
    round_idx: int,
) -> list[ClientUpdate]:
    """Faulted view of one round's materialised uploads.

    The same fault schedule as the batched path assigned one upload at
    a time, the same corruption values, and the same parking (one part
    per straggler).
    """
    dropout, corrupt, delays = transit.fault_schedule(round_idx, len(sampled))
    kinds = np.select(
        [dropout, delays > 0, corrupt],
        [FAULT_DROPOUT, FAULT_STRAGGLER, FAULT_CORRUPTION],
        FAULT_NONE,
    )
    arrivals = transit.drain(round_idx)
    if not kinds.any() and not arrivals.num_clients:
        return updates

    kind_by_user = {
        int(user): (int(kind), int(delay))
        for user, kind, delay in zip(sampled, kinds, delays)
        if kind != FAULT_NONE
    }
    surviving: list[ClientUpdate] = []
    for update in updates:
        kind, delay = kind_by_user.get(update.user_id, (FAULT_NONE, 0))
        if kind == FAULT_NONE:
            surviving.append(update)
        elif kind == FAULT_DROPOUT:
            transit.counts["dropped_uploads"] += 1
        elif kind == FAULT_STRAGGLER:
            transit.park(
                from_updates([update]), round_idx, round_idx + delay
            )
            transit.counts["deferred_uploads"] += 1
        else:  # FAULT_CORRUPTION
            item_grads = update.item_grads.copy()
            transit._corrupt(item_grads, ...)
            surviving.append(
                ClientUpdate(
                    user_id=update.user_id,
                    item_ids=update.item_ids.copy(),
                    item_grads=item_grads,
                    param_grads=update.param_grads,
                    malicious=update.malicious,
                )
            )
            transit.counts["corrupted_uploads"] += 1
    return surviving + to_updates(arrivals)


# ----------------------------------------------------------------------
# Server ingestion
# ----------------------------------------------------------------------


def apply_updates(server: Server, updates: Sequence[ClientUpdate]) -> None:
    """Aggregate uploads and take one SGD step on the server's model."""
    if server.audit_log is not None and updates:
        # Log the raw uploads, before any defense filter touches them.
        record(server.audit_log, updates)
    updates = _gate_updates(server, updates)
    if server._below_quorum(len(updates)):
        return
    if not updates:
        return
    if server.update_filter is not None:
        updates = filter_updates(server.update_filter, updates)
    _apply_item_updates(server, updates)
    _apply_param_updates(server, updates)


def _gate_updates(
    server: Server, updates: Sequence[ClientUpdate]
) -> Sequence[ClientUpdate]:
    """Per-upload twin of ``Server._gate_batch``.

    Same per-client accept/reject decisions and the same counters.
    Returns the input sequence unchanged when every upload passes.
    """
    keep = []
    rejected = False
    for update in updates:
        finite = bool(np.isfinite(update.item_grads).all()) and all(
            bool(np.isfinite(grad).all()) for grad in update.param_grads
        )
        if not finite:
            server.rejected_nonfinite += 1
            rejected = True
            continue
        if (
            server.max_upload_norm > 0
            and update.total_norm > server.max_upload_norm
        ):
            server.rejected_oversized += 1
            rejected = True
            continue
        keep.append(update)
    return keep if rejected else updates


def _apply_item_updates(server: Server, updates: Sequence[ClientUpdate]) -> None:
    model = server.model
    per_item: dict[int, list[np.ndarray]] = {}
    for update in updates:
        for item_id, grad in zip(update.item_ids, update.item_grads):
            per_item.setdefault(int(item_id), []).append(grad)

    if not per_item:
        return
    item_ids = np.fromiter(per_item.keys(), dtype=np.int64, count=len(per_item))
    deltas = np.empty((len(item_ids), model.embedding_dim))
    for row, item_id in enumerate(item_ids):
        stack = np.stack(per_item[int(item_id)])
        deltas[row] = -server.lr * server.aggregator.aggregate(stack)
    model.apply_item_update(item_ids, deltas)


def _apply_param_updates(server: Server, updates: Sequence[ClientUpdate]) -> None:
    params = server.model.interaction_params()
    if not params:
        return
    contributions = [u.param_grads for u in updates if u.param_grads]
    if not contributions:
        return
    deltas: list[np.ndarray] = []
    for index, param in enumerate(params):
        stack = np.stack([grads[index] for grads in contributions])
        if stack.shape[1:] != param.shape:
            raise ValueError(
                f"parameter gradient shape {stack.shape[1:]} does not "
                f"match parameter {param.shape}"
            )
        deltas.append(-server.lr * server.aggregator.aggregate(stack))
    server.model.apply_param_update(deltas)


# ----------------------------------------------------------------------
# Update filters
# ----------------------------------------------------------------------


def filter_updates(
    update_filter: NormBoundFilter | ItemScaleClip, updates: Sequence[ClientUpdate]
) -> Sequence[ClientUpdate]:
    """Per-upload twin of ``update_filter.filter_batch``.

    Clipped uploads are new objects; the others, and an empty round,
    pass through as the same objects.  ``ItemScaleClip``'s smoothed
    scale advances exactly as under ``filter_batch``.
    """
    if not updates:
        return updates
    if isinstance(update_filter, NormBoundFilter):
        bound = update_filter.threshold
        if bound <= 0:
            bound = float(np.median([u.total_norm for u in updates]))
        return [u.clipped(bound) for u in updates]
    if isinstance(update_filter, ItemScaleClip):
        return _scale_clip(update_filter, updates)
    raise TypeError(f"no per-upload twin for {type(update_filter).__name__}")


def _scale_clip(
    clip: ItemScaleClip, updates: Sequence[ClientUpdate]
) -> Sequence[ClientUpdate]:
    # Median-of-medians: each client votes with the median norm of its
    # own (non-zero) rows.
    client_medians = []
    for update in updates:
        norms = np.linalg.norm(update.item_grads, axis=1)
        positive = norms[norms > 0]
        if len(positive):
            client_medians.append(_lower_median(positive))
    round_median = (
        _lower_median(np.asarray(client_medians)) if client_medians else 0.0
    )
    scale = clip._update_scale(round_median)
    if scale <= 0.0:
        return updates
    bound = clip.factor * scale
    clipped: list[ClientUpdate] = []
    for update in updates:
        item_grads = _clip_rows(update.item_grads, bound)
        if item_grads is None:
            clipped.append(update)
            continue
        clipped.append(
            ClientUpdate(
                user_id=update.user_id,
                item_ids=update.item_ids,
                item_grads=item_grads,
                param_grads=update.param_grads,
                malicious=update.malicious,
            )
        )
    return clipped


def _clip_rows(grads: np.ndarray, bound: float) -> np.ndarray | None:
    """Rows clipped to ``bound``, or ``None`` when nothing changes."""
    if bound <= 0.0 or len(grads) == 0:
        return None
    row_norms = np.linalg.norm(grads, axis=1)
    over = row_norms > bound
    if not over.any():
        return None
    out = grads.copy()
    out[over] *= (bound / row_norms[over])[:, None]
    return out
