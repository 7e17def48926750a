"""Upload transit: what happens to an upload between client and server.

The paper assumes an ideally synchronous federation: every sampled
client trains, uploads, and is aggregated, every round.  Real
federated recommenders lose uploads, deliver them late and corrupt
them on the way.  This module is the one *deterministic* stage that
models all of it, for both round modes:

* :class:`UploadTransit` — applied to every wave (a synchronous round
  or an asynchronous dispatch) between local training and the server.
  It decides one cancel mask (fault dropout), one corruption row mask
  and one delay per client, from two stateless streams:
  ``spawn(seed, "fault-plan", wave)`` for
  :class:`~repro.config.FaultConfig` and ``spawn(seed, "async-plan",
  wave)`` for :class:`~repro.config.AsyncConfig`'s timing.  Same seed,
  same transit — on any kernel backend, sharding or resume boundary.
  It also holds every late upload until it is due, and splices it
  into a later aggregation scaled by a FedAsync-style
  ``staleness_discount ** delay``.
* :class:`FaultStats` — the fate of every upload, counted the same way
  in both round modes; nothing is ever dropped silently.

A synchronous run that injects no fault builds no transit at all
(the fault semantics are documented on ``FaultConfig``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import AsyncConfig, FaultConfig
from repro.federated.update_batch import UpdateBatch
from repro.rng import spawn
from repro.stateful import Stateful

__all__ = ["UploadTransit", "CounterRecord", "FaultStats"]


class CounterRecord:
    """Base of the frozen run-accounting dataclasses (:class:`FaultStats`,
    :class:`~repro.federated.async_engine.AsyncStats`): the dict form —
    and so the saved JSON key order — follows the field order."""

    def to_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: dict[str, int]):
        return cls(**{k: int(payload.get(k, 0)) for k in cls.__dataclass_fields__})


@dataclass(frozen=True)
class FaultStats(CounterRecord):
    """The fate of every upload in one simulation run, in either round mode.

    Transit counters come from the :class:`UploadTransit`, server
    counters from the :class:`~repro.federated.server.Server` sanity
    gate and quorum check.  Every counter means the same in both round
    modes.  Under synchronous rounds a deferred upload (a straggler)
    ends up in exactly one of ``stale_applied``, ``stale_dropped`` and
    ``uploads_parked``; under asynchrony those three also count uploads
    made late by traffic and latency alone, and a deferred upload may
    still be in flight.
    """

    #: Uploads cancelled by fault dropout.
    dropped_uploads: int = 0
    #: Straggler uploads, deferred ``1..straggler_max_delay`` versions.
    deferred_uploads: int = 0
    #: Uploads applied at a delay of at least 1 model version.
    stale_applied: int = 0
    #: Uploads dropped for exceeding a non-zero ``max_staleness``.
    stale_dropped: int = 0
    max_staleness_applied: int = 0
    #: Uploads the transit still holds at run end.
    uploads_parked: int = 0
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


class UploadTransit(Stateful):
    """The one stage every wave's uploads cross on their way to the server.

    One per simulation, for either round mode, and the one owner of an
    upload's fate: :meth:`route` cancels, corrupts and delays one
    wave's uploads, :meth:`park` holds late ones and :meth:`drain`
    releases them, and ``counts`` (keyed by :class:`FaultStats` field
    names) counts all of it.  Synchronous rounds go through
    :meth:`sync_round`; the asynchronous engine turns the delays into
    arrival events and parks what arrives.  A fault is keyed by *user
    id*, so a client that uploads nothing this wave consumes its fault
    as a no-op.

    Parked entries are ``(part, origin, due)``: the uploads of one or
    more clients, the model version they trained against, and the
    first ``now`` at which :meth:`drain` releases them.  Entries keep
    insertion order, which both callers make deterministic, so every
    downstream float accumulation is reproducible.
    """

    STATE = ("counts",)

    def __init__(self, faults: FaultConfig, asynchrony: AsyncConfig, seed: int):
        self.faults = faults
        self.asynchrony = asynchrony
        self.seed = seed
        self.entries: list[tuple[UpdateBatch, int, int]] = []
        self.counts: Counter[str] = Counter()

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
        ``staleness_discount ** delay`` via
        :meth:`UpdateBatch.discounted`; past a non-zero
        ``max_staleness`` it is dropped and counted.
        """
        cfg, counts = self.faults, self.counts
        parts, waiting = [], []
        for entry in self.entries:
            part, origin, due = entry
            if due > now:
                waiting.append(entry)
                continue
            delay = now - origin
            if cfg.max_staleness and delay > cfg.max_staleness:
                counts["stale_dropped"] += part.num_clients
                continue
            if delay:
                part = part.discounted(cfg.staleness_discount**delay)
                counts["stale_applied"] += part.num_clients
                counts["max_staleness_applied"] = max(
                    counts["max_staleness_applied"], delay
                )
            parts.append(part)
        self.entries = waiting
        return UpdateBatch.concat(parts) if parts else UpdateBatch.empty()

    def fault_schedule(self, wave: int, n: int) -> tuple[np.ndarray, ...]:
        """``(dropout, corrupt, delay)`` of ``wave``'s ``n`` sampled positions.

        One uniform per position from ``spawn(seed, "fault-plan",
        wave)``, banded into dropout / straggler / corruption by the
        rates; straggler delays (1..``straggler_max_delay`` versions, 0
        elsewhere) come next from the same stream.
        """
        cfg = self.faults
        rng = spawn(self.seed, "fault-plan", wave)
        draws = rng.random(n)
        straggle_edge = cfg.dropout_rate + cfg.straggler_rate
        dropout = draws < cfg.dropout_rate
        straggling = ~dropout & (draws < straggle_edge)
        corrupt = (draws >= straggle_edge) & (draws < straggle_edge + cfg.corruption_rate)
        delay = np.zeros(n, dtype=np.int64)
        delay[straggling] = rng.integers(
            1, cfg.straggler_max_delay + 1, size=int(straggling.sum())
        )
        return dropout, corrupt, delay

    def timing_schedule(self, wave: int, n: int) -> np.ndarray:
        """Arrival offsets of an asynchronous wave's uploads.

        Drawn from ``spawn(seed, "async-plan", wave)`` in a fixed order:
        traffic offsets, compute latency, network delay.
        """
        cfg = self.asynchrony
        rng = spawn(self.seed, "async-plan", wave)
        if cfg.traffic == "poisson":
            offsets = np.cumsum(rng.exponential(1.0 / cfg.arrival_rate, n))
        elif cfg.traffic == "trace":
            offsets = np.resize(np.asarray(cfg.trace_offsets, dtype=np.float64), n)
        else:  # instant
            offsets = np.zeros(n)
        for mean in (cfg.compute_mean, cfg.network_mean):
            if mean > 0:
                offsets = offsets + rng.exponential(mean, n)
        return offsets

    def route(
        self, batch: UpdateBatch, sampled: Sequence[int], wave: int
    ) -> tuple[UpdateBatch, np.ndarray]:
        """One wave's uploads in transit: ``(surviving batch, delays)``.

        Dropped clients leave through one ``select_clients``;
        corrupted clients' rows are overwritten in one fresh array
        (inputs are never mutated — the batch may hold views of the
        engine's round stacks).  ``delays`` holds straggler versions
        under synchronous rounds, virtual time (traffic + compute +
        network + ``delay · round_interval``) under asynchrony.  A wave
        nothing happens to returns its input batch.  The three fault
        masks are disjoint, so a dropped client is never also late or
        corrupted.
        """
        n = batch.num_clients
        dropout = corrupt = np.zeros(n, dtype=bool)
        delay = np.zeros(n, dtype=np.int64)
        if self.faults.injects_faults:
            sampled = np.asarray(sampled, dtype=np.int64)
            order = np.argsort(sampled)
            at = order[np.searchsorted(sampled, batch.user_ids, sorter=order)]
            schedule = self.fault_schedule(wave, len(sampled))
            dropout, corrupt, delay = (mask[at] for mask in schedule)
        self.counts["dropped_uploads"] += int(dropout.sum())
        self.counts["deferred_uploads"] += int((delay > 0).sum())
        self.counts["corrupted_uploads"] += int(corrupt.sum())
        if self.asynchrony.enabled:
            delay = self.timing_schedule(wave, n) + delay * self.asynchrony.round_interval
        if corrupt.any():
            item_grads = batch.item_grads.copy()
            self._corrupt(item_grads, np.repeat(corrupt, batch.lengths))
            batch = batch.with_item_grads(item_grads)
        if dropout.any():
            batch, delay = batch.select_clients(~dropout), delay[~dropout]
        return batch, delay

    def sync_round(
        self, batch: UpdateBatch, sampled: Sequence[int], round_idx: int
    ) -> UpdateBatch:
        """What the server sees of synchronous round ``round_idx``.

        Stragglers park as one copied part per distinct delay with
        ``due = round + delay`` and the transit drains at ``now =
        round``, so a straggler lands exactly ``delay`` rounds late,
        after the round's own uploads.
        """
        arrivals = self.drain(round_idx)
        batch, delay = self.route(batch, sampled, round_idx)
        if delay.any():
            for d in np.unique(delay[delay > 0]):
                self.park(batch.select_clients(delay == d), round_idx, round_idx + int(d))
            batch = batch.select_clients(delay == 0)
        if not arrivals.num_clients:
            return batch
        return UpdateBatch.concat([batch, arrivals])

    def fault_counts(self) -> dict[str, int]:
        """The transit's share of :class:`FaultStats`."""
        return {**self.counts, "uploads_parked": self.pending}

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

    def _corrupt(self, grads: np.ndarray, rows: np.ndarray) -> None:
        """In-transit corruption of ``grads[rows]``, in place."""
        cfg = self.faults
        if cfg.corruption_mode == "overscale":
            grads[rows] *= grads.dtype.type(cfg.corruption_scale)
        else:
            grads[rows] = np.nan if cfg.corruption_mode == "nan" else np.inf
