"""Deterministic virtual clock, event queue and traffic plan.

The asynchronous federation engine
(:mod:`repro.federated.async_engine`) runs on *virtual* time: no
wall-clock value ever enters the simulation, so the same seed always
replays the identical event sequence — on any machine, at any speed,
across checkpoint/resume boundaries.  Three pieces make that hold:

* :class:`VirtualClock` — a monotonic float timestamp advanced only by
  event processing;
* :class:`EventQueue` — a heap of ``(time, priority, seq)``-ordered
  events.  Priorities break same-instant ties deterministically
  (``DEADLINE < DISPATCH < ARRIVAL`` — an expired deadline closes the
  open round first, then a new wave dispatches against the freshly
  aggregated model, and only then are the wave's instant arrivals
  buffered; exactly the ordering that makes the degenerate config
  reproduce the synchronous engine for full *and* partial waves), and
  the monotonically increasing ``seq`` makes equal ``(time,
  priority)`` events FIFO.  The queue's full contents are
  checkpointable: entries are plain tuples of picklable values.
* :class:`AsyncPlan` — the seeded traffic/latency/churn schedule.
  ``wave_schedule(wave, n)`` draws from ``spawn(seed, "async-plan",
  wave)`` — the same spawn discipline as :class:`FaultPlan` and the
  client streams — so the schedule is a pure function of
  ``(seed, AsyncConfig, wave, n)`` with no state to checkpoint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.config import AsyncConfig
from repro.rng import spawn
from repro.stateful import Stateful

__all__ = [
    "PRIORITY_DISPATCH",
    "PRIORITY_DEADLINE",
    "PRIORITY_ARRIVAL",
    "VirtualClock",
    "EventQueue",
    "WaveSchedule",
    "AsyncPlan",
]

#: Same-instant processing order.  An expired deadline closes the open
#: round first (so a wave dispatching at that instant trains against
#: the freshly aggregated model, exactly like the next synchronous
#: round), then the wave dispatch runs (it only *schedules* arrivals),
#: and only then do arrivals — possibly the just-dispatched wave's
#: instant uploads — enter the buffer.
PRIORITY_DEADLINE = 0
PRIORITY_DISPATCH = 1
PRIORITY_ARRIVAL = 2


class VirtualClock(Stateful):
    """Monotonic simulation time; advanced only by event processing."""

    STATE = ("now",)

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def advance(self, to: float) -> None:
        if to < self.now:
            raise ValueError(
                f"virtual time cannot run backwards: {to} < {self.now}"
            )
        self.now = float(to)


class EventQueue(Stateful):
    """Deterministic event heap ordered by ``(time, priority, seq)``.

    ``payload`` is opaque to the queue; entries compare only on the
    ``(time, priority, seq)`` prefix (``seq`` is unique, so comparison
    never reaches the payload).  ``state()`` / ``restore()`` capture
    the exact heap for checkpointing — in-flight uploads survive a
    process boundary verbatim.
    """

    STATE = ("_heap", "_seq")

    def __init__(self):
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._last_key: tuple[float, int, int] | None = None

    def push(self, time: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (float(time), priority, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, int, object]:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, priority, seq, payload = heapq.heappop(self._heap)
        self._last_key = (time, priority, seq)
        return time, priority, payload

    def requeue(self, payload: object) -> None:
        """Put ``payload`` back under the key of the event popped last.

        The key was the queue's minimum when popped, so unless an
        earlier event has been pushed since, ``payload`` is popped next
        — the rest of a split event keeps its place in the order.
        """
        heapq.heappush(self._heap, (*self._last_key, payload))

    def __len__(self) -> int:
        return len(self._heap)

    def payloads(self, priority: int) -> list:
        """Payloads of the pending events of one priority class."""
        return [entry[3] for entry in self._heap if entry[1] == priority]


@dataclass(frozen=True)
class WaveSchedule:
    """One dispatched wave's upload timing, aligned with its uploads.

    Position ``i`` refers to the wave's ``i``-th upload in batch
    (participation) order.  ``offsets[i] + compute[i] + network[i]``
    added to the dispatch time is when the upload arrives at the
    server; ``cancelled[i]`` marks churned clients whose upload never
    leaves the device.
    """

    offsets: np.ndarray  # (n,) float64 traffic-process arrival offsets
    compute: np.ndarray  # (n,) float64 compute latencies
    network: np.ndarray  # (n,) float64 network delays
    cancelled: np.ndarray  # (n,) bool churn mask

    def arrival_offsets(self) -> np.ndarray:
        """Total dispatch-to-server-arrival delay per upload."""
        return self.offsets + self.compute + self.network


class AsyncPlan:
    """Seeded per-wave traffic/latency/churn schedule.

    A pure function of ``(seed, config, wave, n)``: each call spawns
    its own generator, draws in a fixed order (traffic offsets, then
    compute, then network, then churn), and keeps no state — which is
    what makes checkpoint/resume exact for free, like
    :class:`~repro.federated.faults.FaultPlan`.
    """

    def __init__(self, config: AsyncConfig, seed: int):
        self.config = config
        self.seed = seed

    def wave_schedule(self, wave_idx: int, n: int) -> WaveSchedule:
        cfg = self.config
        zeros = np.zeros(n)
        if n == 0:
            return WaveSchedule(zeros, zeros, zeros, np.zeros(0, dtype=bool))
        rng = spawn(self.seed, "async-plan", wave_idx)
        if cfg.traffic == "poisson":
            offsets = np.cumsum(rng.exponential(1.0 / cfg.arrival_rate, n))
        elif cfg.traffic == "trace":
            trace = np.asarray(cfg.trace_offsets, dtype=np.float64)
            offsets = trace[np.arange(n) % len(trace)]
        else:  # instant
            offsets = zeros
        compute = (
            rng.exponential(cfg.compute_mean, n) if cfg.compute_mean > 0 else zeros
        )
        network = (
            rng.exponential(cfg.network_mean, n) if cfg.network_mean > 0 else zeros
        )
        cancelled = (
            rng.random(n) < cfg.churn_rate
            if cfg.churn_rate > 0
            else np.zeros(n, dtype=bool)
        )
        return WaveSchedule(offsets, compute, network, cancelled)
