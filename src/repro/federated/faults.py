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
  same seed, same faults, independent of kernel backend, sharding,
  wall-clock or checkpoint/resume boundaries.
* :class:`StalenessBuffer` — the runtime's one holding area for late
  uploads, shared with the asynchronous engine: ``UpdateBatch`` parts
  parked until due, then spliced into a later aggregation scaled by a
  FedAsync-style ``staleness_discount ** delay`` factor.
* :class:`FaultController` — applies one round's scheduled faults to
  the round's assembled
  :class:`~repro.federated.update_batch.UpdateBatch` as array ops.
  The per-client reference the fault parity suite compares it
  against lives in ``tests/reference/``.
* :class:`FaultStats` — the full accounting surfaced on
  :class:`~repro.federated.simulation.SimulationResult`.  Nothing is
  ever dropped silently: every injected fault, every stale splice,
  every server-side rejection and every quorum-skipped round is
  counted.

Semantics of each fault:

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

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FaultConfig
from repro.federated.update_batch import UpdateBatch
from repro.rng import spawn
from repro.stateful import Stateful

__all__ = [
    "FAULT_NONE",
    "FAULT_DROPOUT",
    "FAULT_STRAGGLER",
    "FAULT_CORRUPTION",
    "RoundFaults",
    "FaultPlan",
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


class StalenessBuffer(Stateful):
    """Holds late uploads as :class:`UpdateBatch` parts until they are due.

    The one staleness mechanism of the runtime: the fault layer parks
    straggler uploads here, the asynchronous engine its arrivals.  Each
    entry is ``(part, origin, due)`` — the uploads of one or more
    clients, the round (model version) they trained against, and the
    first ``now`` at which :meth:`drain` releases them.  Entries keep
    insertion order, which both callers make deterministic, so every
    downstream float accumulation is reproducible.

    ``tallies`` accumulates what the drains did, in clients, under the
    :class:`~repro.federated.async_engine.AsyncStats` field names
    (``uploads_applied``, ``stale_applied``, ``stale_dropped``,
    ``max_staleness_applied``).
    """

    STATE = ("tallies",)

    def __init__(self, discount: float, max_staleness: int = 0):
        self.discount = float(discount)
        self.max_staleness = int(max_staleness)
        self.entries: list[tuple[UpdateBatch, int, int]] = []
        self.tallies: Counter[str] = Counter()

    def park(self, part: UpdateBatch, origin: int, due: int) -> None:
        self.entries.append((part, int(origin), int(due)))

    @property
    def pending(self) -> int:
        """Clients parked and not yet drained."""
        return sum(part.num_clients for part, _, _ in self.entries)

    def drain(self, now: int) -> UpdateBatch:
        """Every entry with ``due <= now``, in insertion order, as one batch.

        A part's delay is ``now - origin``.  At delay 0 it passes
        through untouched (same arrays — not multiplied by 1.0, which
        keeps the degenerate asynchronous config bit-identical to the
        synchronous engine); at a positive delay it is scaled by
        ``discount ** delay`` via :meth:`UpdateBatch.discounted`; past
        a non-zero ``max_staleness`` it is dropped and counted.
        """
        parts, waiting = [], []
        for entry in self.entries:
            part, origin, due = entry
            if due > now:
                waiting.append(entry)
                continue
            delay = now - origin
            if self.max_staleness and delay > self.max_staleness:
                self.tallies["stale_dropped"] += part.num_clients
                continue
            if delay:
                part = part.discounted(self.discount**delay)
                self.tallies["stale_applied"] += part.num_clients
                self.tallies["max_staleness_applied"] = max(
                    self.tallies["max_staleness_applied"], delay
                )
            self.tallies["uploads_applied"] += part.num_clients
            parts.append(part)
        self.entries = waiting
        return UpdateBatch.concat(parts) if parts else UpdateBatch.empty()

    # -- checkpoint plumbing -------------------------------------------

    def state(self) -> dict:
        entries = [(part.arrays(), origin, due) for part, origin, due in self.entries]
        return {**super().state(), "entries": entries}

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.entries = [
            (UpdateBatch(**arrays), origin, due)
            for arrays, origin, due in state["entries"]
        ]


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
        return any(self.to_dict().values())

    def to_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: dict[str, int]) -> "FaultStats":
        return cls(**{k: int(payload.get(k, 0)) for k in cls.__dataclass_fields__})


class FaultController(Stateful):
    """Applies one round's scheduled faults to the round's uploads.

    One controller per simulation; it owns the :class:`FaultPlan`, the
    :class:`StalenessBuffer` and the injection counters (``counts``,
    keyed by :class:`FaultStats` field names).  The fault of a sampled
    client is keyed by its *user id* (sampled positions and upload rows
    both carry global user ids), so clients that upload nothing this
    round — e.g. a PIECK miner still accumulating observations —
    consume their scheduled fault as a no-op.

    Stragglers park with ``due = round + delay`` and every round drains
    at ``now = round``, so a straggler lands exactly ``delay`` rounds
    late, discounted by ``staleness_discount ** delay``, after the
    round's own uploads.  A round in which no scheduled fault fires and
    no stale upload arrives returns its input unchanged (the same
    object, zero copies) — the zero-fault plan is bit-identical to no
    controller at all.
    """

    STATE = ("buffer", "counts")

    def __init__(self, config: FaultConfig, seed: int):
        self.config = config
        self.plan = FaultPlan(config, seed)
        self.buffer = StalenessBuffer(config.staleness_discount)
        self.counts: Counter[str] = Counter()

    def stats_counts(self) -> dict[str, int]:
        """The controller's share of :class:`FaultStats`."""
        return {
            **self.counts,
            "stale_applied": self.buffer.tallies["stale_applied"],
            "stale_pending": self.buffer.pending,
        }

    def apply_to_batch(
        self, batch: UpdateBatch, sampled: Sequence[int], round_idx: int
    ) -> UpdateBatch:
        """Faulted view of one round's :class:`UpdateBatch`.

        Uploads of dropped clients vanish, stragglers' are parked as
        one copied part per distinct delay, corrupted clients' gradient
        rows are overwritten in one fresh array (inputs are never
        mutated — the batch may hold views of the engine's round
        stacks), and stale uploads due this round are appended after
        the round's own uploads in parking order.
        """
        faults = self.plan.round_faults(round_idx, len(sampled))
        arrivals = self.buffer.drain(round_idx)
        if faults.any_fault:
            sampled = np.asarray(sampled, dtype=np.int64)
            order = np.argsort(sampled)
            at = order[np.searchsorted(sampled, batch.user_ids, sorter=order)]
            kinds, delays = faults.kinds[at], faults.delays[at]
            self.counts["dropped_uploads"] += int((kinds == FAULT_DROPOUT).sum())
            straggling = kinds == FAULT_STRAGGLER
            self.counts["deferred_uploads"] += int(straggling.sum())
            for delay in np.unique(delays[straggling]):
                part = batch.select_clients(straggling & (delays == delay))
                self.buffer.park(part, round_idx, round_idx + int(delay))
            corrupt = kinds == FAULT_CORRUPTION
            if corrupt.any():
                self.counts["corrupted_uploads"] += int(corrupt.sum())
                item_grads = batch.item_grads.copy()
                self._corrupt(item_grads, np.repeat(corrupt, batch.lengths))
                batch = batch.with_item_grads(item_grads)
            batch = batch.select_clients((kinds == FAULT_NONE) | corrupt)
        if not arrivals.num_clients:
            return batch
        return UpdateBatch.concat([batch, arrivals])

    def _corrupt(self, grads: np.ndarray, rows: np.ndarray) -> None:
        """In-transit corruption of ``grads[rows]``, in place."""
        mode = self.config.corruption_mode
        if mode == "nan":
            grads[rows] = np.nan
        elif mode == "inf":
            grads[rows] = np.inf
        else:  # overscale
            grads[rows] *= grads.dtype.type(self.config.corruption_scale)
