"""Deterministic fault injection for the federation runtime.

The paper's threat model assumes an ideally synchronous federation:
every sampled client trains, uploads, and is aggregated, every round.
Real federated recommenders see client dropout, stragglers whose
uploads arrive rounds late, and corrupted payloads.  This module makes
that failure model a first-class, *deterministic* layer:

* :class:`FaultPlan` — the seeded per-round fault schedule.  Faults
  are drawn from ``spawn(seed, "fault-plan", round_idx)`` — the same
  spawn discipline as every client RNG stream — so the schedule is a
  pure function of ``(seed, FaultConfig, round_idx, round size)``:
  same seed, same faults, independent of execution engine, kernel
  backend, wall-clock or checkpoint/resume boundaries.
* :class:`StalenessBuffer` — holds deferred (straggler) uploads until
  their arrival round and splices them into later rounds' aggregation,
  scaled by a FedAsync-style ``staleness_discount ** delay`` factor.
* :class:`FaultController` — applies one round's scheduled faults to
  the round's uploads, on *either* engine: the batch engine hands it
  the assembled :class:`~repro.federated.update_batch.UpdateBatch`,
  the reference loop engine its ``ClientUpdate`` list.  Both paths
  share the per-client fault assignment and the scaling arithmetic, so
  they stay bit-identical under faults exactly as they are without
  (asserted by the fault parity suite).
* :class:`FaultStats` — the full accounting surfaced on
  :class:`~repro.federated.simulation.SimulationResult`.  Nothing is
  ever dropped silently: every injected fault, every stale splice,
  every server-side rejection and every quorum-skipped round is
  counted.

Semantics of each fault (shared by both engines):

* **dropout** — the client trains locally (its private user embedding
  advances) but the upload never reaches the server, exactly like a
  connection lost after download but before upload;
* **straggler** — local training happens on time, the upload arrives
  ``delay`` rounds late and is applied with the staleness discount;
  uploads still in flight when the run ends are counted as pending;
* **corruption** — the gradient rows are corrupted in transit
  (non-finite values or an ``overscale`` blow-up); the client's local
  state is untouched.  Non-finite corruption is caught by the server
  sanity gate (:class:`~repro.federated.server.Server`), making the
  injection → rejection path fully counted end to end.

The zero-fault configuration never constructs a controller at all, so
the fault layer costs the ideal-synchronous path nothing (enforced by
``benchmarks/bench_fault_tolerance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.config import FaultConfig
from repro.federated.payload import ClientUpdate
from repro.federated.update_batch import UpdateBatch
from repro.rng import spawn

__all__ = [
    "FAULT_NONE",
    "FAULT_DROPOUT",
    "FAULT_STRAGGLER",
    "FAULT_CORRUPTION",
    "RoundFaults",
    "FaultPlan",
    "DeferredUpload",
    "StalenessBuffer",
    "FaultController",
    "FaultStats",
]

#: Per-position fault kinds in a :class:`RoundFaults` schedule.
FAULT_NONE = 0
FAULT_DROPOUT = 1
FAULT_STRAGGLER = 2
FAULT_CORRUPTION = 3


@dataclass(frozen=True)
class RoundFaults:
    """One round's fault assignment, aligned with the sampled users.

    ``kinds[p]`` is the fault of the client at sampled position ``p``
    (one of the ``FAULT_*`` constants); ``delays[p]`` is the straggler
    delay in rounds (0 for every non-straggler position).
    """

    kinds: np.ndarray  # (sampled,) int8
    delays: np.ndarray  # (sampled,) int64

    @property
    def any_fault(self) -> bool:
        return bool((self.kinds != FAULT_NONE).any())


class FaultPlan:
    """Deterministic per-round fault schedule derived from the run seed.

    ``round_faults(round_idx, num_sampled)`` is a pure function: it
    spawns ``spawn(seed, "fault-plan", round_idx)``, draws one uniform
    per sampled position, and bands it into dropout / straggler /
    corruption per the configured rates (straggler delays come from
    the same stream).  No state survives between rounds, which is what
    makes checkpoint/resume trivially exact: re-asking for round ``r``
    after a resume yields the identical schedule.
    """

    def __init__(self, config: FaultConfig, seed: int):
        self.config = config
        self.seed = seed

    def round_faults(self, round_idx: int, num_sampled: int) -> RoundFaults:
        cfg = self.config
        kinds = np.zeros(num_sampled, dtype=np.int8)
        delays = np.zeros(num_sampled, dtype=np.int64)
        if num_sampled == 0 or not cfg.injects_faults:
            return RoundFaults(kinds, delays)
        rng = spawn(self.seed, "fault-plan", round_idx)
        draws = rng.random(num_sampled)
        drop_edge = cfg.dropout_rate
        straggle_edge = drop_edge + cfg.straggler_rate
        corrupt_edge = straggle_edge + cfg.corruption_rate
        kinds[draws < corrupt_edge] = FAULT_CORRUPTION
        kinds[draws < straggle_edge] = FAULT_STRAGGLER
        kinds[draws < drop_edge] = FAULT_DROPOUT
        stragglers = np.flatnonzero(kinds == FAULT_STRAGGLER)
        if len(stragglers):
            delays[stragglers] = rng.integers(
                1, cfg.straggler_max_delay + 1, size=len(stragglers)
            )
        return RoundFaults(kinds, delays)


@dataclass
class DeferredUpload:
    """One straggler's upload, parked until its arrival round.

    Arrays are private copies (the batch engine reuses round stacks'
    lifetimes); ``discount`` is the staleness factor already resolved
    at defer time (``staleness_discount ** delay``), applied to the
    gradients at splice time in the gradient's own dtype.
    """

    user_id: int
    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray]
    malicious: bool
    discount: float
    origin_round: int

    def discounted_grads(self) -> np.ndarray:
        """Gradient rows scaled by the staleness discount.

        The scalar is cast to the gradient dtype first so
        reduced-precision uploads stay at their own precision — the
        same rule the cohort path uses for participation scales.
        """
        return self.item_grads * self.item_grads.dtype.type(self.discount)

    def discounted_params(self) -> list[np.ndarray]:
        return [
            grad * grad.dtype.type(self.discount) for grad in self.param_grads
        ]

    def as_update(self) -> ClientUpdate:
        """The upload as it reaches the server: staleness discount applied."""
        return ClientUpdate.trusted(
            user_id=self.user_id,
            item_ids=self.item_ids,
            item_grads=self.discounted_grads(),
            param_grads=self.discounted_params(),
            malicious=self.malicious,
        )


class StalenessBuffer:
    """Holds deferred uploads keyed by their arrival round.

    FIFO per arrival round (insertion order is the deterministic
    sampled-position order of the origin round), so splice order — and
    therefore every downstream float accumulation — is reproducible.
    """

    def __init__(self):
        self._due: dict[int, list[DeferredUpload]] = {}

    def defer(self, due_round: int, upload: DeferredUpload) -> None:
        self._due.setdefault(due_round, []).append(upload)

    def pop_due(self, round_idx: int) -> list[DeferredUpload]:
        """All uploads arriving at ``round_idx``, in deferral order."""
        return self._due.pop(round_idx, [])

    @property
    def pending(self) -> int:
        """Uploads still in flight."""
        return sum(len(entries) for entries in self._due.values())

    # -- checkpoint plumbing -------------------------------------------

    def state(self) -> dict[int, list[DeferredUpload]]:
        """The raw buffer contents (checkpoint capture)."""
        return self._due

    def restore(self, state: dict[int, list[DeferredUpload]]) -> None:
        self._due = state


@dataclass(frozen=True)
class FaultStats:
    """Fault/mitigation accounting of one simulation run.

    Injection counters come from the :class:`FaultController`
    (dropped / deferred / corrupted uploads, stale splices), server
    counters from the :class:`~repro.federated.server.Server` sanity
    gate and quorum check.  ``stale_pending`` counts stragglers whose
    uploads were still in flight when the run ended.
    """

    dropped_uploads: int = 0
    deferred_uploads: int = 0
    stale_applied: int = 0
    stale_pending: int = 0
    corrupted_uploads: int = 0
    rejected_nonfinite: int = 0
    rejected_oversized: int = 0
    quorum_failed_rounds: int = 0
    quorum_dropped_uploads: int = 0

    @property
    def rejected_uploads(self) -> int:
        """Total uploads rejected by the server sanity gate."""
        return self.rejected_nonfinite + self.rejected_oversized

    @property
    def any_fault(self) -> bool:
        return any(
            (
                self.dropped_uploads,
                self.deferred_uploads,
                self.stale_applied,
                self.stale_pending,
                self.corrupted_uploads,
                self.rejected_nonfinite,
                self.rejected_oversized,
                self.quorum_failed_rounds,
                self.quorum_dropped_uploads,
            )
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "dropped_uploads": self.dropped_uploads,
            "deferred_uploads": self.deferred_uploads,
            "stale_applied": self.stale_applied,
            "stale_pending": self.stale_pending,
            "corrupted_uploads": self.corrupted_uploads,
            "rejected_nonfinite": self.rejected_nonfinite,
            "rejected_oversized": self.rejected_oversized,
            "quorum_failed_rounds": self.quorum_failed_rounds,
            "quorum_dropped_uploads": self.quorum_dropped_uploads,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, int]) -> "FaultStats":
        return cls(**{k: int(payload.get(k, 0)) for k in cls.__dataclass_fields__})


class FaultController:
    """Applies one round's scheduled faults to the round's uploads.

    One controller per simulation; it owns the :class:`FaultPlan`, the
    :class:`StalenessBuffer` and the injection counters.  The fault of
    a sampled client is keyed by its *user id* (sampled positions and
    upload entries both carry global user ids, on both engines), so
    clients that upload nothing this round — e.g. a PIECK miner still
    accumulating observations — consume their scheduled fault as a
    no-op on both engines identically.

    A round in which no scheduled fault fires and no stale upload
    arrives returns its input unchanged (the same object, zero copies)
    — the zero-fault plan is bit-identical to no controller at all.
    """

    def __init__(self, config: FaultConfig, seed: int):
        self.config = config
        self.plan = FaultPlan(config, seed)
        self.buffer = StalenessBuffer()
        self.dropped_uploads = 0
        self.deferred_uploads = 0
        self.stale_applied = 0
        self.corrupted_uploads = 0

    # ------------------------------------------------------------------
    # Batch-engine path
    # ------------------------------------------------------------------

    def apply_to_batch(
        self, batch: UpdateBatch, sampled: Sequence[int], round_idx: int
    ) -> UpdateBatch:
        """Faulted view of one round's :class:`UpdateBatch`.

        Uploads of dropped clients vanish, stragglers' are moved into
        the staleness buffer, corrupted clients' gradient rows are
        overwritten in a fresh array (inputs are never mutated — the
        batch may hold views of the engine's round stacks), and stale
        uploads due this round are appended after the round's own
        uploads in deferral order.
        """
        faults = self.plan.round_faults(round_idx, len(sampled))
        arrivals = self.buffer.pop_due(round_idx)
        if not faults.any_fault and not arrivals:
            return batch

        kind_by_user = {
            int(user): (int(kind), int(delay))
            for user, kind, delay in zip(sampled, faults.kinds, faults.delays)
            if kind != FAULT_NONE
        }
        keep = np.ones(batch.num_clients, dtype=bool)
        corrupt_positions: list[int] = []
        starts = batch.starts
        param_row = {int(owner): j for j, owner in enumerate(batch.param_owners)}
        for pos in range(batch.num_clients):
            kind, delay = kind_by_user.get(int(batch.user_ids[pos]), (FAULT_NONE, 0))
            if kind == FAULT_NONE:
                continue
            if kind == FAULT_DROPOUT:
                keep[pos] = False
                self.dropped_uploads += 1
            elif kind == FAULT_STRAGGLER:
                keep[pos] = False
                seg = slice(
                    int(starts[pos]), int(starts[pos]) + int(batch.lengths[pos])
                )
                params = (
                    [stack[param_row[pos]].copy() for stack in batch.param_stacks]
                    if pos in param_row
                    else []
                )
                self.buffer.defer(
                    round_idx + delay,
                    DeferredUpload(
                        user_id=int(batch.user_ids[pos]),
                        item_ids=batch.item_ids[seg].copy(),
                        item_grads=batch.item_grads[seg].copy(),
                        param_grads=params,
                        malicious=bool(batch.malicious[pos]),
                        discount=self.config.staleness_discount**delay,
                        origin_round=round_idx,
                    ),
                )
                self.deferred_uploads += 1
            else:  # FAULT_CORRUPTION
                corrupt_positions.append(pos)
                self.corrupted_uploads += 1

        if corrupt_positions:
            item_grads = batch.item_grads.copy()
            for pos in corrupt_positions:
                seg = slice(
                    int(starts[pos]), int(starts[pos]) + int(batch.lengths[pos])
                )
                item_grads[seg] = self._corrupt_rows(item_grads[seg])
            batch = batch.with_item_grads(item_grads)
        if not keep.all():
            batch = batch.select_clients(keep)
        if arrivals:
            stale = UpdateBatch.from_updates(
                [arrival.as_update() for arrival in arrivals]
            )
            batch = UpdateBatch.concat([batch, stale])
            self.stale_applied += len(arrivals)
        return batch

    # ------------------------------------------------------------------
    # Loop-engine path
    # ------------------------------------------------------------------

    def apply_to_updates(
        self,
        updates: list[ClientUpdate],
        sampled: Sequence[int],
        round_idx: int,
    ) -> list[ClientUpdate]:
        """Faulted view of one round's materialised uploads.

        Mirrors :meth:`apply_to_batch` on the reference path: the same
        per-user fault assignment, the same corruption values, the
        same splice order, the same discount arithmetic — so the two
        engines stay bit-identical under any fault schedule.
        """
        faults = self.plan.round_faults(round_idx, len(sampled))
        arrivals = self.buffer.pop_due(round_idx)
        if not faults.any_fault and not arrivals:
            return updates

        kind_by_user = {
            int(user): (int(kind), int(delay))
            for user, kind, delay in zip(sampled, faults.kinds, faults.delays)
            if kind != FAULT_NONE
        }
        surviving: list[ClientUpdate] = []
        for update in updates:
            kind, delay = kind_by_user.get(update.user_id, (FAULT_NONE, 0))
            if kind == FAULT_NONE:
                surviving.append(update)
            elif kind == FAULT_DROPOUT:
                self.dropped_uploads += 1
            elif kind == FAULT_STRAGGLER:
                self.buffer.defer(
                    round_idx + delay,
                    DeferredUpload(
                        user_id=update.user_id,
                        item_ids=update.item_ids.copy(),
                        item_grads=update.item_grads.copy(),
                        param_grads=[g.copy() for g in update.param_grads],
                        malicious=update.malicious,
                        discount=self.config.staleness_discount**delay,
                        origin_round=round_idx,
                    ),
                )
                self.deferred_uploads += 1
            else:  # FAULT_CORRUPTION
                surviving.append(
                    ClientUpdate(
                        user_id=update.user_id,
                        item_ids=update.item_ids.copy(),
                        item_grads=self._corrupt_rows(update.item_grads.copy()),
                        param_grads=update.param_grads,
                        malicious=update.malicious,
                    )
                )
                self.corrupted_uploads += 1
        for arrival in arrivals:
            surviving.append(
                ClientUpdate(
                    user_id=arrival.user_id,
                    item_ids=arrival.item_ids,
                    item_grads=arrival.discounted_grads(),
                    param_grads=arrival.discounted_params(),
                    malicious=arrival.malicious,
                )
            )
        self.stale_applied += len(arrivals)
        return surviving

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def _corrupt_rows(self, rows: np.ndarray) -> np.ndarray:
        """In-transit corruption of one upload's gradient rows."""
        mode = self.config.corruption_mode
        if mode == "nan":
            rows[...] = np.nan
        elif mode == "inf":
            rows[...] = np.inf
        else:  # overscale
            rows *= rows.dtype.type(self.config.corruption_scale)
        return rows

    # -- checkpoint plumbing -------------------------------------------

    def state(self) -> dict:
        """Mutable runtime state for checkpoint capture."""
        return {
            "buffer": self.buffer.state(),
            "dropped_uploads": self.dropped_uploads,
            "deferred_uploads": self.deferred_uploads,
            "stale_applied": self.stale_applied,
            "corrupted_uploads": self.corrupted_uploads,
        }

    def restore(self, state: dict) -> None:
        self.buffer.restore(state["buffer"])
        self.dropped_uploads = state["dropped_uploads"]
        self.deferred_uploads = state["deferred_uploads"]
        self.stale_applied = state["stale_applied"]
        self.corrupted_uploads = state["corrupted_uploads"]
