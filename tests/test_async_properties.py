"""Property-based tests for the upload transit's staleness buffer.

:class:`repro.federated.faults.UploadTransit` holds every late upload
of the runtime — synchronous stragglers and the asynchronous engine's
arrivals — as ``(UpdateBatch part, origin, due)`` entries, and must
never lose, duplicate or reorder a client.  Hypothesis drives its
``park`` / ``drain`` with randomized schedules and asserts the
invariants both round modes rely on: conservation (every parked client
applied or dropped exactly once, ``pending`` counted in clients), FIFO
among due entries, a discount that never grows with delay, delay-0
parts returned as the same arrays, the ``max_staleness`` boundary, and
parts that keep their own precision.

Whole runs close the loop with one set of conservation laws over
:class:`~repro.federated.faults.FaultStats` and
:class:`~repro.federated.async_engine.AsyncStats`:

* synchronous, with stragglers and a staleness cap: ``deferred_uploads
  == stale_applied + stale_dropped + uploads_parked``;
* asynchronous, faults included: ``clients_dispatched ==
  dropped_uploads + uploads_arrived + uploads_in_flight`` and
  ``uploads_arrived == uploads_applied + stale_dropped +
  uploads_parked``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ClientUpdate, from_updates
from repro.config import AsyncConfig, ExperimentConfig, FaultConfig, ModelConfig, TrainConfig
from repro.federated.faults import UploadTransit
from repro.federated.simulation import FederatedSimulation
from repro.federated.update_batch import UpdateBatch

FAST = settings(max_examples=60, deadline=None)


def _buffer(discount: float, max_staleness: int = 0) -> UploadTransit:
    """A transit used only for its staleness buffer."""
    faults = FaultConfig(staleness_discount=discount, max_staleness=max_staleness)
    return UploadTransit(faults, AsyncConfig(), seed=0)


def _part(tag: int, clients: int = 1, dtype=np.float64, params: bool = False) -> UpdateBatch:
    """``clients`` random uploads with user ids ``tag * 10 + k``."""
    rng = np.random.default_rng(tag)
    updates = []
    for k in range(clients):
        num_items = int(rng.integers(1, 5))
        updates.append(
            ClientUpdate(
                user_id=tag * 10 + k,
                item_ids=rng.choice(32, size=num_items, replace=False),
                item_grads=rng.standard_normal((num_items, 4)).astype(dtype),
                param_grads=[rng.standard_normal(3).astype(dtype)] if params else [],
                malicious=bool(k % 3 == 0),
            )
        )
    return from_updates(updates)


#: A randomized parking schedule: (clients, origin, extra delay until
#: due) per entry.
schedules = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(0, 3)),
    min_size=0,
    max_size=25,
)


class TestStalenessBufferProperties:
    @FAST
    @given(schedule=schedules, max_staleness=st.integers(0, 8))
    def test_conservation(self, schedule, max_staleness):
        buffer = _buffer(0.5, max_staleness)
        for tag, (clients, origin, wait) in enumerate(schedule):
            buffer.park(_part(tag, clients), origin, origin + wait)
        parked = sum(clients for clients, _, _ in schedule)
        assert buffer.pending == parked
        drained = 0
        for now in range(12):
            drained += buffer.drain(now).num_clients
        assert buffer.pending == 0
        assert drained + buffer.counts["stale_dropped"] == parked
        # A drained buffer yields nothing more, not a replay.
        assert buffer.drain(12).num_clients == 0

    @FAST
    @given(schedule=schedules)
    def test_every_deferral_pops_exactly_once(self, schedule):
        buffer = _buffer(0.5)
        for tag, (clients, origin, wait) in enumerate(schedule):
            buffer.park(_part(tag, clients), origin, origin + wait)
        seen = []
        for now in range(12):
            seen.extend(buffer.drain(now).user_ids.tolist())
            # Draining the same instant again yields nothing.
            assert buffer.drain(now).num_clients == 0
        expected = [
            tag * 10 + k
            for tag, (clients, _, _) in enumerate(schedule)
            for k in range(clients)
        ]
        assert sorted(seen) == sorted(expected)

    @FAST
    @given(schedule=schedules)
    def test_fifo_within_each_due_round(self, schedule):
        buffer = _buffer(0.5)
        for tag, (clients, origin, wait) in enumerate(schedule):
            buffer.park(_part(tag, clients), origin, origin + wait)
        for now in range(12):
            # Tags encode insertion order; user ids keep position order.
            users = buffer.drain(now).user_ids.tolist()
            assert users == sorted(users)

    @FAST
    @given(schedule=schedules, now=st.integers(9, 12))
    def test_drain_deterministic_and_order_preserving(self, schedule, now):
        def run():
            buffer = _buffer(0.5)
            for tag, (clients, origin, _) in enumerate(schedule):
                buffer.park(_part(tag, clients, params=True), origin, origin)
            return buffer.drain(now)

        a, b = run(), run()
        assert a.user_ids.tobytes() == b.user_ids.tobytes()
        assert a.item_grads.tobytes() == b.item_grads.tobytes()
        for sa, sb in zip(a.param_stacks, b.param_stacks):
            assert sa.tobytes() == sb.tobytes()
        # Parking order is preserved through the drain.
        assert a.user_ids.tolist() == [
            tag * 10 + k
            for tag, (clients, _, _) in enumerate(schedule)
            for k in range(clients)
        ]

    @FAST
    @given(
        origin=st.integers(0, 6),
        delay=st.integers(1, 6),
        discount=st.floats(0.05, 1.0),
    )
    def test_discount_monotone_in_delay(self, origin, delay, discount):
        def drained_norm(now):
            buffer = _buffer(discount)
            buffer.park(_part(1, params=True), origin, origin)
            batch = buffer.drain(now)
            return np.abs(batch.item_grads).sum() + np.abs(batch.param_stacks[0]).sum()

        assert drained_norm(origin + delay + 1) <= drained_norm(origin + delay) + 1e-12

    @FAST
    @given(tag=st.integers(0, 99), origin=st.integers(0, 6), extra=st.integers(1, 4))
    def test_discount_monotone_in_drain_delay(self, tag, origin, extra):
        # An arrival due one round after its origin, drained on time or
        # ``extra`` rounds late: the later drain is never larger.
        def drained_norm(now):
            buffer = _buffer(0.5, max_staleness=0)
            buffer.park(_part(tag), origin, origin + 1)
            return np.abs(buffer.drain(now).item_grads).sum()

        assert drained_norm(origin + 1 + extra) <= drained_norm(origin + 1) + 1e-12

    @FAST
    @given(schedule=schedules)
    def test_fresh_uploads_pass_through_untouched(self, schedule):
        buffer = _buffer(0.25)
        parts = [_part(tag, clients) for tag, (clients, _, _) in enumerate(schedule)]
        for part in parts:
            buffer.park(part, 7, 7)  # origin == drain instant: delay 0
        drained = buffer.drain(7)
        assert buffer.counts["stale_applied"] == 0
        if len(parts) == 1:
            assert drained is parts[0]  # same arrays, no multiply
        row = 0
        for part in parts:
            got = drained.item_grads[row : row + len(part.item_grads)]
            assert got.tobytes() == part.item_grads.tobytes()
            row += len(part.item_grads)

    @FAST
    @given(now=st.integers(3, 8), max_staleness=st.integers(1, 5))
    def test_max_staleness_boundary(self, now, max_staleness):
        buffer = _buffer(0.5, max_staleness)
        buffer.park(_part(1, clients=2), now - max_staleness, now)  # kept
        buffer.park(_part(2, clients=3), now - max_staleness - 1, now)  # dropped
        drained = buffer.drain(now)
        assert drained.num_clients == 2
        assert buffer.counts["stale_applied"] == 2
        assert buffer.counts["stale_dropped"] == 3
        assert buffer.counts["max_staleness_applied"] == max_staleness

    @FAST
    @given(delay=st.integers(0, 4), discount=st.floats(0.05, 1.0))
    def test_float32_parts_stay_float32(self, delay, discount):
        buffer = _buffer(discount)
        part = _part(3, clients=2, dtype=np.float32, params=True)
        buffer.park(part, 0, 0)
        drained = buffer.drain(delay)
        assert drained.item_grads.dtype == np.float32
        assert drained.param_stacks[0].dtype == np.float32
        factor = np.float32(discount**delay)
        expected = part.item_grads if delay == 0 else part.item_grads * factor
        assert drained.item_grads.tobytes() == expected.tobytes()


#: Fault rates that sum to at most 1, as ``FaultConfig`` requires.
fault_rates = st.tuples(
    st.floats(0.0, 0.4), st.floats(0.0, 0.3), st.floats(0.0, 0.3)
)


def _run(faults: FaultConfig, asynchrony: AsyncConfig, tiny_dataset):
    config = ExperimentConfig(
        model=ModelConfig(kind="mf", embedding_dim=4, seed=3),
        train=TrainConfig(rounds=6, users_per_round=12, lr=1.0, eval_every=0),
        faults=faults,
        asynchrony=asynchrony,
        seed=3,
    )
    return FederatedSimulation(config, tiny_dataset).run()


class TestSyncStragglers:
    @settings(max_examples=12, deadline=None)
    @given(
        rates=fault_rates,
        max_delay=st.integers(1, 3),
        max_staleness=st.integers(0, 3),
    )
    def test_conservation(self, tiny_dataset, rates, max_delay, max_staleness):
        dropout, straggler, corruption = rates
        faults = FaultConfig(
            dropout_rate=dropout,
            straggler_rate=straggler,
            straggler_max_delay=max_delay,
            corruption_rate=corruption,
            max_staleness=max_staleness,
        )
        fates = _run(faults, AsyncConfig(), tiny_dataset).fault_stats
        # Every straggler is applied late, dropped stale or still parked.
        assert fates.deferred_uploads == (
            fates.stale_applied + fates.stale_dropped + fates.uploads_parked
        )
        assert fates.max_staleness_applied <= max_delay
        if max_staleness:
            assert fates.max_staleness_applied <= max_staleness


class TestFaultsUnderAsynchrony:
    @settings(max_examples=12, deadline=None)
    @given(
        rates=fault_rates,
        max_delay=st.integers(1, 3),
        max_staleness=st.integers(0, 3),
        traffic=st.sampled_from(["instant", "poisson"]),
        buffer_size=st.sampled_from([0, 5]),
    )
    def test_conservation_with_faults(
        self, tiny_dataset, rates, max_delay, max_staleness, traffic, buffer_size
    ):
        dropout, straggler, corruption = rates
        faults = FaultConfig(
            dropout_rate=dropout,
            straggler_rate=straggler,
            straggler_max_delay=max_delay,
            corruption_rate=corruption,
            max_staleness=max_staleness,
        )
        asynchrony = AsyncConfig(
            enabled=True,
            traffic=traffic,
            network_mean=0.3,
            buffer_size=buffer_size,
        )
        result = _run(faults, asynchrony, tiny_dataset)
        stats, fates = result.async_stats, result.fault_stats
        assert stats.clients_dispatched == (
            fates.dropped_uploads + stats.uploads_arrived + stats.uploads_in_flight
        )
        assert stats.uploads_arrived == (
            stats.uploads_applied + fates.stale_dropped + fates.uploads_parked
        )
        assert stats.rounds_closed_by_buffer + stats.rounds_closed_by_deadline == 6
        assert fates.deferred_uploads + fates.corrupted_uploads <= (
            stats.clients_dispatched - fates.dropped_uploads
        )
