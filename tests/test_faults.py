"""Fault-injection layer: determinism, parity, and degradation semantics.

Covers the tentpole contracts of the fault-tolerant runtime:

* `FaultPlan` is a pure function of ``(seed, config, round)`` — same
  seed, same schedule, forever;
* the zero-fault configuration is *bit-identical* to the pre-fault
  engine (no controller, no gate rejections, no behavioural drift);
* the batch engine stays bit-identical to the per-client reference
  loop under any fault schedule, including the staleness splices and
  the server gate;
* every fault and every mitigation is counted — nothing drops
  silently.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from reference import LoopSimulation, apply_updates, to_updates
from repro.config import AttackConfig, ExperimentConfig, FaultConfig, ModelConfig, TrainConfig
from repro.federated.faults import (
    FAULT_CORRUPTION,
    FAULT_DROPOUT,
    FAULT_NONE,
    FAULT_STRAGGLER,
    FaultController,
    FaultPlan,
    StalenessBuffer,
)
from repro.federated.payload import ClientUpdate
from repro.federated.server import Server
from repro.federated.simulation import FederatedSimulation
from repro.federated.update_batch import UpdateBatch
from repro.models.mf import MFModel

#: Simulation class per engine leg of a parametrised test.
ENGINES = {"batch": FederatedSimulation, "loop": LoopSimulation}

AGGRESSIVE = FaultConfig(
    dropout_rate=0.2,
    straggler_rate=0.15,
    straggler_max_delay=3,
    corruption_rate=0.1,
    corruption_mode="nan",
)


def _config(dim: int = 8, rounds: int = 12, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(kind="mf", embedding_dim=dim, seed=3),
        train=TrainConfig(rounds=rounds, users_per_round=16, lr=1.0, eval_every=0),
        seed=3,
        **kwargs,
    )


# ----------------------------------------------------------------------
# FaultConfig validation
# ----------------------------------------------------------------------

class TestFaultConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultConfig(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(dropout_rate=0.6, straggler_rate=0.5)
        with pytest.raises(ValueError):
            FaultConfig(corruption_mode="garbage")
        with pytest.raises(ValueError):
            FaultConfig(staleness_discount=0.0)
        with pytest.raises(ValueError):
            FaultConfig(straggler_rate=0.1, straggler_max_delay=0)

    def test_enabled_flags(self):
        assert not FaultConfig().enabled
        assert not FaultConfig().injects_faults
        assert FaultConfig(dropout_rate=0.1).injects_faults
        assert FaultConfig(min_quorum=4).enabled
        assert not FaultConfig(min_quorum=4).injects_faults
        assert FaultConfig(max_upload_norm=1.0).enabled


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        plans = [FaultPlan(AGGRESSIVE, seed=11) for _ in range(2)]
        for round_idx in range(20):
            a = plans[0].round_faults(round_idx, 32)
            b = plans[1].round_faults(round_idx, 32)
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.delays, b.delays)

    def test_different_seeds_differ(self):
        a = FaultPlan(AGGRESSIVE, seed=1).round_faults(0, 256)
        b = FaultPlan(AGGRESSIVE, seed=2).round_faults(0, 256)
        assert not np.array_equal(a.kinds, b.kinds)

    def test_zero_fault_plan_schedules_nothing(self):
        plan = FaultPlan(FaultConfig(), seed=7)
        for round_idx in range(10):
            faults = plan.round_faults(round_idx, 64)
            assert not faults.any_fault
            assert (faults.kinds == FAULT_NONE).all()

    def test_rates_approximately_respected(self):
        plan = FaultPlan(AGGRESSIVE, seed=0)
        kinds = np.concatenate(
            [plan.round_faults(r, 1000).kinds for r in range(20)]
        )
        assert abs((kinds == FAULT_DROPOUT).mean() - 0.2) < 0.02
        assert abs((kinds == FAULT_STRAGGLER).mean() - 0.15) < 0.02
        assert abs((kinds == FAULT_CORRUPTION).mean() - 0.1) < 0.02

    def test_straggler_delays_in_range(self):
        plan = FaultPlan(AGGRESSIVE, seed=0)
        faults = plan.round_faults(0, 2000)
        stragglers = faults.kinds == FAULT_STRAGGLER
        assert stragglers.any()
        assert (faults.delays[stragglers] >= 1).all()
        assert (faults.delays[stragglers] <= 3).all()
        assert (faults.delays[~stragglers] == 0).all()


# ----------------------------------------------------------------------
# Zero-fault bit-identity
# ----------------------------------------------------------------------

class TestZeroFaultIdentity:
    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_default_fault_config_is_bit_identical(self, tiny_dataset, engine):
        cfg = _config(attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2))
        plain = ENGINES[engine](cfg, tiny_dataset)
        res_plain = plain.run()
        gated = ENGINES[engine](
            dataclasses.replace(cfg, faults=FaultConfig()), tiny_dataset
        )
        res_gated = gated.run()
        assert res_plain.exposure == res_gated.exposure
        assert res_plain.hit_ratio == res_gated.hit_ratio
        assert np.array_equal(
            plain.model.item_embeddings, gated.model.item_embeddings
        )
        assert gated.fault_controller is None
        assert not res_gated.fault_stats.any_fault

    def test_quorum_only_config_is_bit_identical(self, tiny_dataset):
        cfg = _config()
        res_plain = FederatedSimulation(cfg, tiny_dataset).run()
        # A quorum far below the round size never fires.
        res_gated = FederatedSimulation(
            dataclasses.replace(cfg, faults=FaultConfig(min_quorum=2)), tiny_dataset
        ).run()
        assert res_plain.exposure == res_gated.exposure
        assert res_plain.hit_ratio == res_gated.hit_ratio
        assert not res_gated.fault_stats.any_fault


# ----------------------------------------------------------------------
# Loop/batch parity under faults
# ----------------------------------------------------------------------

class TestFaultedEngineParity:
    @pytest.mark.parametrize(
        "faults",
        [
            FaultConfig(dropout_rate=0.3),
            FaultConfig(straggler_rate=0.3, straggler_max_delay=2),
            FaultConfig(corruption_rate=0.2, corruption_mode="nan"),
            AGGRESSIVE,
        ],
        ids=["dropout", "stragglers", "corruption", "aggressive"],
    )
    def test_mf_attack_parity(self, tiny_dataset, faults):
        cfg = _config(
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2),
            faults=faults,
        )
        batch = FederatedSimulation(cfg, tiny_dataset)
        loop = LoopSimulation(cfg, tiny_dataset)
        res_b, res_l = batch.run(), loop.run()
        assert np.array_equal(batch.model.item_embeddings, loop.model.item_embeddings)
        assert res_b.exposure == res_l.exposure
        assert res_b.hit_ratio == res_l.hit_ratio
        assert res_b.fault_stats == res_l.fault_stats
        assert res_b.fault_stats.any_fault

    def test_ncf_overscale_with_norm_gate(self, tiny_dataset):
        cfg = ExperimentConfig(
            model=ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3),
            train=TrainConfig(rounds=8, users_per_round=16, lr=0.05, eval_every=0),
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2),
            faults=FaultConfig(
                dropout_rate=0.1,
                straggler_rate=0.2,
                corruption_rate=0.15,
                corruption_mode="overscale",
                corruption_scale=1e8,
                max_upload_norm=50.0,
            ),
            seed=3,
        )
        batch = FederatedSimulation(cfg, tiny_dataset)
        loop = LoopSimulation(cfg, tiny_dataset)
        res_b, res_l = batch.run(), loop.run()
        assert np.array_equal(batch.model.item_embeddings, loop.model.item_embeddings)
        for a, b in zip(
            batch.model.interaction_params(), loop.model.interaction_params()
        ):
            assert np.array_equal(a, b)
        assert res_b.fault_stats == res_l.fault_stats
        assert res_b.fault_stats.rejected_oversized > 0

    def test_same_seed_reproduces_faulted_run(self, tiny_dataset):
        cfg = _config(faults=AGGRESSIVE)
        a = FederatedSimulation(cfg, tiny_dataset).run()
        b = FederatedSimulation(cfg, tiny_dataset).run()
        assert a.exposure == b.exposure
        assert a.hit_ratio == b.hit_ratio
        assert a.fault_stats == b.fault_stats


# ----------------------------------------------------------------------
# Degradation semantics
# ----------------------------------------------------------------------

class TestDegradationSemantics:
    def test_nan_corruption_never_reaches_the_model(self, tiny_dataset):
        cfg = _config(faults=FaultConfig(corruption_rate=0.3, corruption_mode="nan"))
        sim = FederatedSimulation(cfg, tiny_dataset)
        result = sim.run()
        assert np.isfinite(sim.model.item_embeddings).all()
        # Injection → rejection is counted end to end.
        assert result.fault_stats.corrupted_uploads > 0
        assert (
            result.fault_stats.rejected_nonfinite
            == result.fault_stats.corrupted_uploads
        )

    def test_unmet_quorum_freezes_the_model(self, tiny_dataset):
        cfg = _config(
            rounds=6,
            faults=FaultConfig(dropout_rate=0.05, min_quorum=10**6),
        )
        sim = FederatedSimulation(cfg, tiny_dataset)
        before = sim.model.snapshot_items()
        result = sim.run()
        assert np.array_equal(sim.model.item_embeddings, before)
        assert result.fault_stats.quorum_failed_rounds == 6
        assert result.fault_stats.quorum_dropped_uploads > 0

    def test_dropout_still_trains_locally(self, tiny_dataset):
        # 100% dropout: the server never moves, but every sampled
        # client's private embedding does (connection lost after
        # download, not before training).
        cfg = _config(rounds=4, faults=FaultConfig(dropout_rate=1.0))
        sim = FederatedSimulation(cfg, tiny_dataset)
        items_before = sim.model.snapshot_items()
        users_before = sim.state.snapshot_embeddings()
        result = sim.run()
        assert np.array_equal(sim.model.item_embeddings, items_before)
        assert not np.array_equal(sim.state.snapshot_embeddings(), users_before)
        assert result.fault_stats.dropped_uploads == 4 * 16

    def test_straggler_discount_applied(self):
        # One straggler with delay 1 on a tiny crafted model: the stale
        # arrival must land scaled by staleness_discount ** 1.
        model = MFModel(num_items=4, embedding_dim=2, init_scale=0.0, seed=0)
        server = Server(model, lr=1.0)
        config = FaultConfig(straggler_rate=1.0, straggler_max_delay=1, staleness_discount=0.5)
        controller = FaultController(config, seed=0)
        grad = np.array([[1.0, 2.0]])
        update = ClientUpdate(
            user_id=0, item_ids=np.array([1]), item_grads=grad.copy()
        )
        first = controller.apply_to_batch(
            UpdateBatch.from_updates([update]), [0], round_idx=0
        )
        assert first.num_clients == 0  # deferred, not applied
        assert controller.buffer.pending == 1
        arrivals = controller.apply_to_batch(UpdateBatch.empty(2), [], round_idx=1)
        assert arrivals.num_clients == 1
        assert np.array_equal(arrivals.item_grads, grad * 0.5)
        assert controller.stats_counts()["stale_applied"] == 1

    def test_stale_pending_counts_in_flight(self, tiny_dataset):
        cfg = _config(
            rounds=3,
            faults=FaultConfig(straggler_rate=0.5, straggler_max_delay=3),
        )
        result = FederatedSimulation(cfg, tiny_dataset).run()
        stats = result.fault_stats
        assert stats.deferred_uploads == stats.stale_applied + stats.stale_pending
        assert stats.stale_pending > 0


# ----------------------------------------------------------------------
# Server sanity gate (no faults involved)
# ----------------------------------------------------------------------

class TestServerSanityGate:
    def _update(self, user_id: int, grads: np.ndarray) -> ClientUpdate:
        return ClientUpdate(
            user_id=user_id,
            item_ids=np.arange(len(grads)),
            item_grads=grads,
        )

    def test_nan_upload_rejected_on_reference_path(self):
        model = MFModel(num_items=6, embedding_dim=2, init_scale=0.1, seed=0)
        server = Server(model, lr=1.0)
        before = model.snapshot_items()
        poison = self._update(0, np.full((2, 2), np.nan))
        honest = self._update(1, np.ones((2, 2)))
        apply_updates(server, [poison, honest])
        assert np.isfinite(model.item_embeddings).all()
        assert server.rejected_nonfinite == 1
        assert server.rejected_uploads == 1
        # The honest update still landed.
        assert not np.array_equal(model.item_embeddings, before)

    def test_nan_upload_rejected_on_batch_path(self):
        model = MFModel(num_items=6, embedding_dim=2, init_scale=0.1, seed=0)
        server = Server(model, lr=1.0)
        poison = self._update(0, np.full((2, 2), np.inf))
        honest = self._update(1, np.ones((2, 2)))
        server.apply_batch(UpdateBatch.from_updates([poison, honest]))
        assert np.isfinite(model.item_embeddings).all()
        assert server.rejected_nonfinite == 1

    def test_gate_paths_agree(self):
        updates = [
            self._update(0, np.full((2, 2), np.nan)),
            self._update(1, np.ones((2, 2))),
            self._update(2, np.full((3, 2), 100.0)),
        ]
        servers = []
        for ingest in ("updates", "batch"):
            model = MFModel(num_items=6, embedding_dim=2, init_scale=0.1, seed=0)
            server = Server(model, lr=0.1, max_upload_norm=5.0)
            if ingest == "updates":
                apply_updates(server, [u for u in updates])
            else:
                server.apply_batch(UpdateBatch.from_updates(updates))
            servers.append(server)
        ref, batch = servers
        assert ref.rejected_nonfinite == batch.rejected_nonfinite == 1
        assert ref.rejected_oversized == batch.rejected_oversized == 1
        assert np.array_equal(
            ref.model.item_embeddings, batch.model.item_embeddings
        )

    def test_quorum_skips_round(self):
        model = MFModel(num_items=6, embedding_dim=2, init_scale=0.1, seed=0)
        server = Server(model, lr=1.0, min_quorum=3)
        before = model.snapshot_items()
        server.apply_batch(UpdateBatch.from_updates([self._update(0, np.ones((2, 2)))]))
        assert np.array_equal(model.item_embeddings, before)
        assert server.quorum_failed_rounds == 1
        assert server.quorum_dropped_uploads == 1


# ----------------------------------------------------------------------
# UpdateBatch.select_clients
# ----------------------------------------------------------------------

class TestSelectClients:
    def _batch(self) -> UpdateBatch:
        updates = [
            ClientUpdate(
                user_id=k,
                item_ids=np.arange(k + 1),
                item_grads=np.full((k + 1, 2), float(k)),
                param_grads=[np.full((3,), float(k))] if k % 2 == 0 else [],
            )
            for k in range(4)
        ]
        return UpdateBatch.from_updates(updates)

    def test_all_true_returns_same_object(self):
        batch = self._batch()
        assert batch.select_clients(np.ones(4, dtype=bool)) is batch

    def test_subset_matches_materialised_reference(self):
        batch = self._batch()
        keep = np.array([True, False, True, True])
        selected = batch.select_clients(keep)
        expected = UpdateBatch.from_updates(
            [u for u, k in zip(to_updates(batch), keep) if k]
        )
        assert np.array_equal(selected.user_ids, expected.user_ids)
        assert np.array_equal(selected.item_ids, expected.item_ids)
        assert np.array_equal(selected.item_grads, expected.item_grads)
        assert np.array_equal(selected.lengths, expected.lengths)
        assert np.array_equal(selected.param_owners, expected.param_owners)
        assert np.array_equal(selected.malicious, expected.malicious)
        for a, b in zip(selected.param_stacks, expected.param_stacks):
            assert np.array_equal(a, b)

    def test_empty_selection(self):
        batch = self._batch()
        empty = batch.select_clients(np.zeros(4, dtype=bool))
        assert empty.num_clients == 0
        assert len(empty.item_ids) == 0
        assert len(empty.param_owners) == 0


# ----------------------------------------------------------------------
# StalenessBuffer bookkeeping (properties: tests/test_async_properties.py)
# ----------------------------------------------------------------------

class TestStalenessBuffer:
    def test_fifo_per_round(self):
        buffer = StalenessBuffer(0.5)
        for tag in range(3):
            buffer.park(_part(tag), origin=4, due=5)
        buffer.park(_part(9), origin=4, due=6)
        assert buffer.pending == 4
        assert buffer.drain(5).user_ids.tolist() == [0, 1, 2]
        assert buffer.pending == 1
        assert buffer.drain(5).num_clients == 0

    def test_state_roundtrip(self):
        buffer = StalenessBuffer(0.5)
        buffer.park(_part(9), origin=1, due=2)
        restored = StalenessBuffer(0.5)
        restored.restore(buffer.state())
        assert restored.pending == 1
        assert restored.drain(2).user_ids.tolist() == [9]


def _part(user_id: int) -> UpdateBatch:
    return UpdateBatch.from_updates(
        [ClientUpdate(user_id=user_id, item_ids=np.array([0]), item_grads=np.zeros((1, 2)))]
    )
