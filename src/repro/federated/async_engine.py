"""Event-driven asynchronous federation engine (FedAsync/FedBuff style).

The synchronous engines run the paper's idealized protocol: sample,
train, aggregate, repeat — every upload applies in the round that
produced it.  Real federated recommenders are asynchronous: clients
arrive on a traffic process, train at their own speed, upload over
slow links, drop out mid-round, and the server aggregates whatever
it has when a buffer fills or a deadline expires.  This module makes
that a first-class, *deterministic* execution mode:

* :class:`AsyncFederationEngine` — the event loop.  Client *waves*
  dispatch every ``round_interval`` of virtual time; each wave is the
  synchronous engine's cohort for that wave index (same
  ``server.sample_users`` stream) and trains in one batched pass
  against the model it downloaded at dispatch — the math is exactly
  :meth:`~repro.federated.batch_engine.BatchClientEngine.\
compute_round_batch`, the async layer only reorders *when* the
  resulting uploads reach aggregation.
* **Transit.**  A wave stays one
  :class:`~repro.federated.update_batch.UpdateBatch` and crosses the
  simulation's :class:`~repro.federated.faults.UploadTransit`, which
  cancels, corrupts and times its uploads.  Each distinct arrival
  instant becomes *one* ARRIVAL event carrying that instant's clients
  in position order.  Arrivals park in the transit at the model
  version they trained against; a round closes when ``buffer_size``
  clients are parked or its deadline expires (whichever first) and
  drains the transit at the current version.  When the buffer fills
  partway through an event, the round closes after exactly the client
  that filled it and the rest of the event is requeued under its
  original key — the order and round boundaries of a per-client event
  loop, at one event per instant.
* :class:`AsyncStats` — the event loop's counters.  With
  :class:`~repro.federated.faults.FaultStats` they account for every
  dispatched client: dropped, in flight, parked, applied or dropped
  stale — nothing vanishes silently (conservation is asserted by the
  property suite).

Determinism contracts (asserted in CI):

1. **Same seed ⇒ bit-identical runs.**  Time is virtual — the event
   sequence is a pure function of ``(seed, config)``.  Events at the
   same instant order by ``DEADLINE < DISPATCH < ARRIVAL`` then FIFO,
   the wave schedules are stateless spawns, and the queue contents are
   checkpointable, so resume preserves bit-identity mid-stream.
2. **Degenerate config ⇒ the synchronous engine, bit for bit.**  With
   instant traffic, zero latency, ``buffer_size = |wave|``
   and ``round_deadline = round_interval``, wave ``r``'s uploads are
   the only buffer contents when round ``r`` closes, at staleness 0
   (discount skipped — not multiplied by 1.0), in the synchronous
   upload order; partial waves (e.g. miners not uploading) close by
   deadline *before* the next wave's instant arrivals are processed,
   so no wave ever bleeds into a neighbouring round.

A round's deadline is *armed* by the first dispatch or arrival
processed while the round is open (not by the round opening itself):
a round whose work has not started yet cannot expire, and a round
whose wave uploads nothing still terminates — this is what makes the
degenerate config exact in both the full-wave and partial-wave cases
while keeping every round finite under total dropout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.config import TrainConfig
from repro.federated.batch_engine import BatchClientEngine
from repro.federated.clock import (
    PRIORITY_ARRIVAL,
    PRIORITY_DEADLINE,
    PRIORITY_DISPATCH,
    EventQueue,
    VirtualClock,
)
from repro.federated.faults import CounterRecord, UploadTransit
from repro.federated.server import Server
from repro.federated.update_batch import UpdateBatch
from repro.stateful import Stateful

__all__ = ["AsyncStats", "AsyncFederationEngine"]

#: Event kinds, carried as the first element of each queue payload.
EVENT_DISPATCH = "dispatch"
EVENT_DEADLINE = "deadline"
EVENT_ARRIVAL = "arrival"


@dataclass(frozen=True)
class AsyncStats(CounterRecord):
    """Event-loop counters of one simulation run.

    Conservation invariants, read together with
    :class:`~repro.federated.faults.FaultStats` (property-tested):

    * ``clients_dispatched == dropped_uploads + uploads_arrived +
      uploads_in_flight``
    * ``uploads_arrived == uploads_applied + stale_dropped +
      uploads_parked``
    * ``rounds_closed_by_buffer + rounds_closed_by_deadline`` is the
      number of aggregations performed.
    """

    waves_dispatched: int = 0
    clients_dispatched: int = 0
    uploads_arrived: int = 0
    #: Uploads drained into an aggregation, stale or not.
    uploads_applied: int = 0
    rounds_closed_by_buffer: int = 0
    rounds_closed_by_deadline: int = 0
    #: Deadline closes that flushed an empty buffer (no upload made it
    #: in time — the model does not move, but the round terminates).
    empty_rounds: int = 0
    #: Uploads still travelling (scheduled arrivals) at run end.
    uploads_in_flight: int = 0

    @property
    def any_async(self) -> bool:
        """Whether the run executed on the asynchronous engine at all."""
        return bool(self.waves_dispatched)


class AsyncFederationEngine(Stateful):
    """Drives the simulation's rounds through a virtual-time event loop.

    One engine per simulation, wrapping the simulation's
    :class:`~repro.federated.batch_engine.BatchClientEngine` (whose
    batched math and RNG streams it reuses verbatim) and its
    :class:`~repro.federated.server.Server` (whose sanity gate, quorum
    check, defenses and audit log see drained batches exactly as they
    see synchronous rounds).

    ``run_round(r)`` advances the event loop until aggregation ``r``
    completes, so the simulation's training loop — evaluation cadence,
    checkpoint boundaries, history recording — is unchanged: one
    "round" is one aggregation, synchronous or not.

    Run state: clock, event queue (in-flight uploads travel inside its
    arrival events), version and counters; parked uploads are the
    transit's, and the transit draws and sampling streams are stateless
    spawns.
    """

    STATE = ("clock", "queue", "version", "deadline_armed", "counts")

    def __init__(
        self,
        *,
        batch_engine: BatchClientEngine,
        server: Server,
        transit: UploadTransit,
        train_cfg: TrainConfig,
        total_users: int,
    ):
        self.batch_engine = batch_engine
        self.server = server
        self.transit = transit
        self.config = transit.asynchrony
        self.train_cfg = train_cfg
        self.total_users = total_users
        self.clock = VirtualClock()
        self.queue = EventQueue()
        #: FedBuff K: aggregate as soon as this many uploads buffer.
        self.k = self.config.buffer_size or min(
            train_cfg.users_per_round, total_users
        )
        #: Aggregations completed == the model version clients see.
        self.version = 0
        #: Whether the open round's deadline event has been scheduled.
        self.deadline_armed = False
        #: Event-loop counters, keyed by :class:`AsyncStats` field names.
        self.counts: Counter[str] = Counter()
        self.queue.push(0.0, PRIORITY_DISPATCH, (EVENT_DISPATCH, 0))

    # ------------------------------------------------------------------
    # Round driver
    # ------------------------------------------------------------------

    def run_round(self, round_idx: int) -> None:
        """Advance the event loop until aggregation ``round_idx`` closes.

        The loop always terminates: the first dispatch or arrival seen
        by the open round arms its deadline, dispatches recur every
        ``round_interval``, and an expired deadline closes the round
        even with an empty buffer.
        """
        if round_idx != self.version:
            raise RuntimeError(
                f"async engine is at aggregation {self.version}, "
                f"cannot run round {round_idx} out of order"
            )
        target = self.version + 1
        with kernels.use(self.batch_engine.kernel_backend) as backend:
            fallbacks_before = backend.fallback_calls
            while self.version < target:
                self._step()
            if backend.fallback_calls > fallbacks_before:
                self.batch_engine.kernel_fallback_rounds += 1

    def _step(self) -> None:
        time, _, payload = self.queue.pop()
        self.clock.advance(time)
        kind = payload[0]
        if kind == EVENT_DISPATCH:
            self._dispatch(payload[1])
        elif kind == EVENT_DEADLINE:
            self._deadline(payload[1])
        else:  # EVENT_ARRIVAL
            self._arrival(payload[1], payload[2])

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _dispatch(self, wave_idx: int) -> None:
        """Sample, train and schedule one client wave's uploads.

        The wave is the synchronous engine's round-``wave_idx`` cohort
        (same sampling stream) and trains in one batched pass against
        the *current* model; the transit decides which uploads leave
        and when each lands, which is where staleness comes from.
        """
        self.queue.push(
            (wave_idx + 1) * self.config.round_interval,
            PRIORITY_DISPATCH,
            (EVENT_DISPATCH, wave_idx + 1),
        )
        sampled = self.server.sample_users(
            self.total_users, self.train_cfg.users_per_round, wave_idx
        )
        batch = self.batch_engine.compute_round_batch(wave_idx, sampled)
        dispatched = batch.num_clients
        batch, delays = self.transit.route(batch, sampled, wave_idx)
        self.counts["waves_dispatched"] += 1
        self.counts["clients_dispatched"] += dispatched
        times = self.clock.now + delays
        # One event per distinct instant; the stable sort keeps each
        # instant's clients in position order.
        order = np.argsort(times, kind="stable")
        instants, firsts = np.unique(times[order], return_index=True)
        for instant, positions in zip(instants, np.split(order, firsts[1:])):
            self.queue.push(
                float(instant),
                PRIORITY_ARRIVAL,
                (EVENT_ARRIVAL, _clients_at(batch, positions), self.version),
            )
        self._arm_deadline()

    def _arrival(self, part: UpdateBatch, origin_version: int) -> None:
        """Buffer one instant's uploads, closing the round once full.

        If the buffer fills partway through ``part``, the round closes
        after exactly the client that filled it and the rest of the
        event is requeued under its original key, to land next.
        """
        room = self.k - self.transit.pending
        if part.num_clients > room:
            rest = part.client_slice(room, part.num_clients)
            self.queue.requeue((EVENT_ARRIVAL, rest, origin_version))
            part = part.client_slice(0, room)
        self.counts["uploads_arrived"] += part.num_clients
        self.transit.park(part, origin_version, origin_version)
        self._arm_deadline()
        if self.transit.pending >= self.k:
            self._close_round(by_deadline=False)

    def _deadline(self, round_idx: int) -> None:
        if round_idx == self.version:  # not a closed round's stale deadline
            self._close_round(by_deadline=True)

    def _arm_deadline(self) -> None:
        """Schedule the open round's deadline on its first activity."""
        if not self.deadline_armed:
            self.queue.push(
                self.clock.now + self.config.round_deadline,
                PRIORITY_DEADLINE,
                (EVENT_DEADLINE, self.version),
            )
            self.deadline_armed = True

    def _close_round(self, *, by_deadline: bool) -> None:
        """Drain the transit through the server and advance the version."""
        batch = self.transit.drain(self.version)
        self.counts["uploads_applied"] += batch.num_clients
        if by_deadline:
            self.counts["rounds_closed_by_deadline"] += 1
            if batch.num_clients == 0:
                self.counts["empty_rounds"] += 1
        else:
            self.counts["rounds_closed_by_buffer"] += 1
        # An empty drain still goes through apply_batch so quorum
        # accounting matches an empty synchronous round exactly.
        self.server.apply_batch(batch)
        self.version += 1
        self.deadline_armed = False

    # ------------------------------------------------------------------
    # Stats / checkpoint
    # ------------------------------------------------------------------

    def stats(self) -> AsyncStats:
        return AsyncStats(
            **self.counts,
            uploads_in_flight=sum(
                payload[1].num_clients
                for payload in self.queue.payloads(PRIORITY_ARRIVAL)
            ),
        )

    def state(self) -> dict:
        """Event-loop state; arrival parts travel as plain arrays."""
        state = super().state()
        state["queue"]["_heap"] = [
            (*key, _map_part(payload, UpdateBatch.arrays))
            for *key, payload in state["queue"]["_heap"]
        ]
        return state

    def restore(self, state: dict) -> None:
        queue = dict(state["queue"])
        queue["_heap"] = [
            (*key, _map_part(payload, lambda arrays: UpdateBatch(**arrays)))
            for *key, payload in queue["_heap"]
        ]
        super().restore({**state, "queue": queue})


def _map_part(payload: tuple, convert) -> tuple:
    """An event payload with its ``UpdateBatch`` part (arrivals only)
    passed through ``convert``."""
    if payload[0] != EVENT_ARRIVAL:
        return payload
    kind, part, origin = payload
    return (kind, convert(part), origin)


def _clients_at(batch: UpdateBatch, positions: np.ndarray) -> UpdateBatch:
    """``batch``'s clients at ascending ``positions``, zero-copy when
    they are contiguous (the whole batch is the batch itself)."""
    lo, hi = int(positions[0]), int(positions[-1]) + 1
    if hi - lo == len(positions):
        return batch.client_slice(lo, hi)
    keep = np.zeros(batch.num_clients, dtype=bool)
    keep[positions] = True
    return batch.select_clients(keep)
