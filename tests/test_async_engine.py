"""Asynchronous event-driven federation: the two contracts.

Contract 1 (sync equivalence): the *degenerate* asynchronous
configuration — instant traffic, zero compute/network latency, no
churn, buffer = wave cohort — reproduces the synchronous batch engine
**bit for bit**: item embeddings, interaction parameters, user
embeddings and eval history, across attacks x defenses x model kinds.
``AsyncConfig(enabled=True)`` with no other arguments IS that
degenerate configuration by design.

Contract 2 (determinism): the same seed replays the identical event
interleaving — arrivals, cancellations, deadline closures — so two
runs of any asynchronous configuration are bit-identical, including
every ``AsyncStats`` counter.

Also here: churn/staleness semantics, counter conservation (no upload
is silently dropped), checkpoint/resume mid-stream, configuration
validation, and engine-compatibility guards.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from reference import LoopSimulation
from repro.config import (
    AsyncConfig,
    AttackConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    FaultConfig,
)
from repro.federated.clock import PRIORITY_ARRIVAL, AsyncPlan, EventQueue, VirtualClock
from repro.federated.simulation import FederatedSimulation

#: A busy non-degenerate configuration: bursty arrivals, real latency,
#: churn, a buffer smaller than the cohort, and a staleness cap.
CHURNY = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=6.0,
    compute_mean=0.2,
    network_mean=0.4,
    churn_rate=0.15,
    buffer_size=8,
    round_deadline=1.5,
    staleness_discount=0.6,
    max_staleness=4,
)


def _config(model_kind="mf", attack="pieck_uea", defense="none", **kwargs):
    if model_kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        train = TrainConfig(rounds=8, users_per_round=16, lr=1.0, eval_every=4)
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        train = TrainConfig(rounds=8, users_per_round=16, lr=0.05, eval_every=4)
    kwargs.setdefault(
        "attack", AttackConfig(name=attack, malicious_ratio=0.2, mining_rounds=2)
    )
    kwargs.setdefault("defense", DefenseConfig(name=defense))
    return ExperimentConfig(model=model, train=train, seed=3, **kwargs)


def _snapshot(sim: FederatedSimulation, result) -> dict:
    return {
        "items": sim.model.item_embeddings.copy(),
        "params": [p.copy() for p in sim.model.interaction_params()],
        "users": sim.state.snapshot_embeddings(),
        "history": result.history,
        "exposure": result.exposure,
        "hit_ratio": result.hit_ratio,
        "async_stats": result.async_stats,
    }


def _assert_bit_identical(a: dict, b: dict) -> None:
    assert a["items"].tobytes() == b["items"].tobytes()
    for pa, pb in zip(a["params"], b["params"]):
        assert pa.tobytes() == pb.tobytes()
    assert a["users"].tobytes() == b["users"].tobytes()
    assert a["history"] == b["history"]
    assert a["exposure"] == b["exposure"]
    assert a["hit_ratio"] == b["hit_ratio"]


class TestSyncEquivalence:
    """Degenerate async == synchronous batch engine, bit for bit."""

    def test_degenerate_defaults_match_sync(self, tiny_dataset):
        cfg = _config("mf")
        sync = FederatedSimulation(cfg, tiny_dataset)
        ref = _snapshot(sync, sync.run())
        acfg = dataclasses.replace(cfg, asynchrony=AsyncConfig(enabled=True))
        asim = FederatedSimulation(acfg, tiny_dataset)
        got = _snapshot(asim, asim.run())
        _assert_bit_identical(got, ref)
        # Every upload arrived and applied un-discounted.
        stats = got["async_stats"]
        assert stats.uploads_applied == stats.clients_dispatched > 0
        assert stats.uploads_cancelled == 0
        assert stats.stale_applied == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("model_kind", ["mf", "ncf"])
    @pytest.mark.parametrize("attack", ["none", "pieck_uea", "pieck_ipe"])
    @pytest.mark.parametrize("defense", ["none", "median", "regularization"])
    def test_degenerate_grid(self, tiny_dataset, model_kind, attack, defense):
        cfg = _config(model_kind, attack, defense)
        sync = FederatedSimulation(cfg, tiny_dataset)
        ref = _snapshot(sync, sync.run())
        acfg = dataclasses.replace(cfg, asynchrony=AsyncConfig(enabled=True))
        asim = FederatedSimulation(acfg, tiny_dataset)
        _assert_bit_identical(_snapshot(asim, asim.run()), ref)

    def test_explicit_degenerate_values_match_defaults(self, tiny_dataset):
        # Writing the degenerate values out longhand changes nothing.
        cfg = _config("mf")
        explicit = AsyncConfig(
            enabled=True,
            traffic="instant",
            compute_mean=0.0,
            network_mean=0.0,
            churn_rate=0.0,
            buffer_size=0,
            round_interval=1.0,
            round_deadline=1.0,
        )
        a = FederatedSimulation(
            dataclasses.replace(cfg, asynchrony=AsyncConfig(enabled=True)),
            tiny_dataset,
        )
        ra = _snapshot(a, a.run())
        b = FederatedSimulation(
            dataclasses.replace(cfg, asynchrony=explicit), tiny_dataset
        )
        _assert_bit_identical(_snapshot(b, b.run()), ra)


class TestDeterminism:
    def test_same_seed_bit_identical(self, tiny_dataset):
        cfg = _config("mf", attack="pieck_ipe", defense="median",
                      asynchrony=CHURNY)
        a = FederatedSimulation(cfg, tiny_dataset)
        ra = _snapshot(a, a.run())
        b = FederatedSimulation(cfg, tiny_dataset)
        rb = _snapshot(b, b.run())
        _assert_bit_identical(ra, rb)
        assert ra["async_stats"] == rb["async_stats"]
        # The run actually exercised the asynchronous paths.
        stats = ra["async_stats"]
        assert stats.uploads_cancelled > 0
        assert stats.stale_applied > 0

    def test_different_seed_diverges(self, tiny_dataset):
        cfg = _config("mf", asynchrony=CHURNY)
        a = FederatedSimulation(cfg, tiny_dataset)
        a.run()
        other = dataclasses.replace(cfg, seed=11)
        b = FederatedSimulation(other, tiny_dataset)
        b.run()
        assert (
            a.model.item_embeddings.tobytes() != b.model.item_embeddings.tobytes()
        )

    def test_plan_is_pure_function_of_seed_and_wave(self):
        plan = AsyncPlan(CHURNY, seed=5)
        a = plan.wave_schedule(3, 12)
        b = AsyncPlan(CHURNY, seed=5).wave_schedule(3, 12)
        assert a.offsets.tobytes() == b.offsets.tobytes()
        assert a.compute.tobytes() == b.compute.tobytes()
        assert a.network.tobytes() == b.network.tobytes()
        assert a.cancelled.tobytes() == b.cancelled.tobytes()
        # Waves draw from independent spawned streams.
        c = plan.wave_schedule(4, 12)
        assert a.offsets.tobytes() != c.offsets.tobytes()


class TestChurnAndStaleness:
    def test_total_churn_cancels_everything(self, tiny_dataset):
        cfg = _config(
            "mf",
            asynchrony=dataclasses.replace(CHURNY, churn_rate=1.0),
        )
        sim = FederatedSimulation(cfg, tiny_dataset)
        before = sim.model.item_embeddings.copy()
        result = sim.run()
        stats = result.async_stats
        assert stats.uploads_cancelled == stats.clients_dispatched > 0
        assert stats.uploads_arrived == 0
        assert stats.uploads_applied == 0
        assert stats.empty_rounds == result.rounds_run
        # No upload ever reached the server: the model is untouched.
        assert sim.model.item_embeddings.tobytes() == before.tobytes()

    def test_latency_produces_stale_applications(self, tiny_dataset):
        cfg = _config(
            "mf",
            asynchrony=AsyncConfig(
                enabled=True, network_mean=3.0, round_deadline=0.5,
                staleness_discount=0.5,
            ),
        )
        result = FederatedSimulation(cfg, tiny_dataset).run()
        stats = result.async_stats
        assert stats.stale_applied > 0
        assert stats.max_staleness_applied >= 1

    def test_max_staleness_drops(self, tiny_dataset):
        cfg = _config(
            "mf",
            asynchrony=AsyncConfig(
                enabled=True, network_mean=6.0, round_deadline=0.25,
                max_staleness=1,
            ),
        )
        stats = FederatedSimulation(cfg, tiny_dataset).run().async_stats
        assert stats.stale_dropped > 0
        assert stats.max_staleness_applied <= 1

    def test_counter_conservation(self, tiny_dataset):
        for asyn in (CHURNY, AsyncConfig(enabled=True),
                     dataclasses.replace(CHURNY, churn_rate=0.5)):
            cfg = _config("mf", asynchrony=asyn)
            stats = FederatedSimulation(cfg, tiny_dataset).run().async_stats
            assert stats.clients_dispatched == (
                stats.uploads_cancelled
                + stats.uploads_arrived
                + stats.uploads_in_flight
            )
            assert stats.uploads_arrived == (
                stats.uploads_applied
                + stats.stale_dropped
                + stats.uploads_buffered
            )
            assert stats.rounds_closed_by_buffer + stats.rounds_closed_by_deadline == 8


class TestBatchedTransit:
    """Waves travel as UpdateBatch parts, one event per arrival instant."""

    def _engine(self, tiny_dataset, asyn, model_kind="mf", attack="none"):
        cfg = _config(model_kind, attack=attack, asynchrony=asyn)
        return FederatedSimulation(cfg, tiny_dataset)._async_engine

    def _arrivals(self, engine):
        return engine.queue.payloads(PRIORITY_ARRIVAL)

    def test_one_arrival_event_per_distinct_instant(self, tiny_dataset):
        instant = self._engine(tiny_dataset, AsyncConfig(enabled=True))
        instant._step()  # wave 0's dispatch
        assert [e[1].num_clients for e in self._arrivals(instant)] == [16]

        poisson = self._engine(
            tiny_dataset, dataclasses.replace(CHURNY, churn_rate=0.0)
        )
        poisson._step()
        # Continuous offsets: every client lands at its own instant.
        assert [e[1].num_clients for e in self._arrivals(poisson)] == [1] * 16

        trace = self._engine(
            tiny_dataset,
            AsyncConfig(enabled=True, traffic="trace", trace_offsets=(0.0, 0.5)),
        )
        trace._step()
        events = sorted(self._arrivals(trace), key=lambda e: e[1].user_ids[0])
        # Two instants, each carrying every other client in position order.
        users = [e[1].user_ids.tolist() for e in events]
        assert sorted(len(u) for u in users) == [8, 8]
        assert sorted(users[0] + users[1]) == sorted(
            trace.server.sample_users(trace.total_users, 16, 0).tolist()
        )

    def test_uploads_in_flight_counts_clients(self, tiny_dataset):
        engine = self._engine(tiny_dataset, AsyncConfig(enabled=True, buffer_size=5))
        engine.run_round(0)
        # Round 0 closed on the 5th client of wave 0's single event; the
        # other 11 wait in one requeued event.
        stats = engine.stats()
        assert stats.uploads_applied == 5
        assert len(self._arrivals(engine)) == 1
        assert stats.uploads_in_flight == 11
        assert stats.clients_dispatched == (
            stats.uploads_cancelled + stats.uploads_arrived + stats.uploads_in_flight
        )

    def test_parked_wave_unchanged_after_next_wave_trains(self, tiny_dataset):
        asyn = AsyncConfig(enabled=True, buffer_size=100, round_deadline=5.0)
        engine = self._engine(tiny_dataset, asyn, "ncf", "pieck_uea")
        while not engine.buffer.pending:
            engine._step()
        parked = engine.buffer.entries[0][0]

        def snapshot():
            arrays = [parked.item_ids, parked.item_grads, *parked.param_stacks]
            return [array.tobytes() for array in arrays]

        before = snapshot()
        while engine.counts["waves_dispatched"] < 3:
            engine._step()
        assert engine.buffer.entries[0][0] is parked
        assert snapshot() == before


class TestCheckpointResume:
    def test_mid_stream_resume_bit_identical(self, tiny_dataset, tmp_path):
        # The hard case: in-flight uploads and a part-filled buffer
        # cross the checkpoint boundary inside the pickled event heap.
        cfg = _config("mf", attack="pieck_ipe", defense="median",
                      asynchrony=CHURNY)
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref = _snapshot(reference, reference.run())
        assert ref["async_stats"].uploads_in_flight > 0  # heap non-empty

        ckpt_dir = str(tmp_path / "ckpt")
        first = FederatedSimulation(cfg, tiny_dataset)
        first.run(rounds=5, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        resumed = FederatedSimulation(cfg, tiny_dataset)
        got = _snapshot(resumed, resumed.run(checkpoint_dir=ckpt_dir,
                                             checkpoint_every=2))
        _assert_bit_identical(got, ref)
        assert got["async_stats"] == ref["async_stats"]

    def test_sync_checkpoint_rejected_by_async_sim(self, tiny_dataset, tmp_path):
        cfg = _config("mf")
        ckpt_dir = str(tmp_path / "ckpt")
        FederatedSimulation(cfg, tiny_dataset).run(
            rounds=4, checkpoint_dir=ckpt_dir, checkpoint_every=2
        )
        acfg = dataclasses.replace(cfg, asynchrony=AsyncConfig(enabled=True))
        with pytest.raises(ValueError, match="config"):
            FederatedSimulation(acfg, tiny_dataset).run(
                checkpoint_dir=ckpt_dir, checkpoint_every=2
            )


class TestGuards:
    def test_loop_engine_rejected(self, tiny_dataset):
        cfg = _config("mf", asynchrony=AsyncConfig(enabled=True))
        with pytest.raises(ValueError, match="batch"):
            LoopSimulation(cfg, tiny_dataset)

    def test_faults_and_async_mutually_exclusive(self, tiny_dataset):
        cfg = _config(
            "mf",
            asynchrony=AsyncConfig(enabled=True),
            faults=FaultConfig(dropout_rate=0.5),
        )
        with pytest.raises(ValueError, match="mutually exclusive"):
            FederatedSimulation(cfg, tiny_dataset)

    def test_server_gate_still_allowed(self, tiny_dataset):
        # min_quorum / max_upload_norm are server-side and compose with
        # the async engine.
        cfg = _config(
            "mf",
            asynchrony=AsyncConfig(enabled=True),
            faults=FaultConfig(min_quorum=2, max_upload_norm=1e6),
        )
        FederatedSimulation(cfg, tiny_dataset).run(rounds=2)

    def test_out_of_order_round_rejected(self, tiny_dataset):
        cfg = _config("mf", asynchrony=AsyncConfig(enabled=True))
        sim = FederatedSimulation(cfg, tiny_dataset)
        with pytest.raises(RuntimeError, match="round"):
            sim._async_engine.run_round(3)

    def test_clock_rejects_backwards_time(self):
        clock = VirtualClock()
        clock.advance(2.0)
        with pytest.raises(ValueError):
            clock.advance(1.0)

    def test_event_queue_orders_deadline_before_dispatch(self):
        from repro.federated.clock import (
            PRIORITY_ARRIVAL,
            PRIORITY_DEADLINE,
            PRIORITY_DISPATCH,
        )

        queue = EventQueue()
        queue.push(1.0, PRIORITY_ARRIVAL, "arrival")
        queue.push(1.0, PRIORITY_DISPATCH, "dispatch")
        queue.push(1.0, PRIORITY_DEADLINE, "deadline")
        order = [queue.pop()[2] for _ in range(3)]
        assert order == ["deadline", "dispatch", "arrival"]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"traffic": "carrier-pigeon"},
            {"traffic": "trace"},  # trace requires offsets
            {"traffic": "trace", "trace_offsets": (0.5, -1.0)},
            {"arrival_rate": 0.0},
            {"compute_mean": -0.1},
            {"network_mean": -0.1},
            {"churn_rate": 1.5},
            {"buffer_size": -1},
            {"round_interval": 0.0},
            {"round_deadline": 0.0},
            {"staleness_discount": 0.0},
            {"staleness_discount": 1.5},
            {"max_staleness": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AsyncConfig(enabled=True, **kwargs)

    def test_trace_traffic_cycles_offsets(self, tiny_dataset):
        cfg = _config(
            "mf",
            asynchrony=AsyncConfig(
                enabled=True, traffic="trace", trace_offsets=(0.0, 0.25, 0.5)
            ),
        )
        stats = FederatedSimulation(cfg, tiny_dataset).run().async_stats
        assert stats.uploads_applied > 0

    def test_results_roundtrip_async_stats(self, tiny_dataset, tmp_path):
        from repro import persistence

        cfg = _config("mf", asynchrony=CHURNY)
        result = FederatedSimulation(cfg, tiny_dataset).run()
        path = str(tmp_path / "result.json")
        persistence.save_result(result, path)
        loaded = persistence.load_result(path)
        assert loaded.async_stats == result.async_stats
