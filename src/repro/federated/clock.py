"""Deterministic virtual clock and event queue.

The asynchronous federation engine
(:mod:`repro.federated.async_engine`) runs on *virtual* time: no
wall-clock value ever enters the simulation, so the same seed always
replays the identical event sequence — on any machine, at any speed,
across checkpoint/resume boundaries.  Two pieces make that hold, with
the stateless per-wave transit draws of
:class:`~repro.federated.faults.UploadTransit`:

* :class:`VirtualClock` — a monotonic float timestamp advanced only by
  event processing;
* :class:`EventQueue` — a heap of ``(time, priority, seq)``-ordered
  events.  Priorities break same-instant ties deterministically (see
  ``PRIORITY_*``), and the monotonically increasing ``seq`` makes
  equal ``(time, priority)`` events FIFO.  The queue's full contents
  are checkpointable: entries are plain tuples of picklable values.
"""

from __future__ import annotations

import heapq

from repro.stateful import Stateful

__all__ = [
    "PRIORITY_DISPATCH",
    "PRIORITY_DEADLINE",
    "PRIORITY_ARRIVAL",
    "VirtualClock",
    "EventQueue",
]

#: Same-instant processing order.  An expired deadline closes the open
#: round first (so a wave dispatching at that instant trains against
#: the freshly aggregated model, exactly like the next synchronous
#: round), then the wave dispatch runs (it only *schedules* arrivals),
#: and only then do arrivals — possibly the just-dispatched wave's
#: instant uploads — enter the buffer.  This is the ordering that makes
#: the degenerate config reproduce the synchronous engine for full
#: *and* partial waves.
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

    def payloads(self, priority: int) -> list:
        """Payloads of the pending events of one priority class."""
        return [entry[3] for entry in self._heap if entry[1] == priority]
