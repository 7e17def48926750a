"""Fault-injection layer: determinism, parity, and degradation semantics.

Covers the tentpole contracts of the fault-tolerant runtime:

* the transit's fault schedule is a pure function of ``(seed, config,
  round)`` — same seed, same schedule, forever;
* the zero-fault configuration is *bit-identical* to the pre-fault
  engine (no transit, no gate rejections, no behavioural drift);
* the batch engine stays bit-identical to the per-client reference
  loop under any fault schedule, including the staleness splices and
  the server gate;
* every fault and every mitigation is counted — nothing drops
  silently.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from reference import (
    ClientUpdate,
    LoopSimulation,
    apply_updates,
    from_updates,
    to_updates,
)
from repro.config import (
    AsyncConfig,
    AttackConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.faults import UploadTransit
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
        for kwargs in (
            {"dropout_rate": -0.1},
            {"dropout_rate": 0.6, "straggler_rate": 0.5},
            {"corruption_mode": "garbage"},
            {"staleness_discount": 0.0},
            {"staleness_discount": 1.5},
            {"max_staleness": -1},
            {"straggler_rate": 0.1, "straggler_max_delay": 0},
        ):
            with pytest.raises(ValueError):
                FaultConfig(**kwargs)
        # NaN fails every range comparison, so it needs its own check
        # (a NaN max_upload_norm would switch the gate off); the
        # message names the field.
        for name, value in (
            ("dropout_rate", math.nan),
            ("staleness_discount", math.nan),
            ("max_upload_norm", math.nan),
            ("max_upload_norm", math.inf),
            ("corruption_scale", math.nan),
            ("corruption_scale", -math.inf),
        ):
            with pytest.raises(ValueError, match=name):
                FaultConfig(**{name: value})

    def test_enabled_flags(self):
        assert not FaultConfig().injects_faults
        assert FaultConfig(dropout_rate=0.1).injects_faults
        assert not FaultConfig(min_quorum=4).injects_faults
        assert not FaultConfig(max_upload_norm=1.0, max_staleness=2).injects_faults


# ----------------------------------------------------------------------
# Fault schedule determinism
# ----------------------------------------------------------------------


def _schedule(config: FaultConfig, seed: int, round_idx: int, n: int):
    """``(dropout, corrupt, delay)`` of one synchronous round."""
    return UploadTransit(config, AsyncConfig(), seed).fault_schedule(round_idx, n)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        for round_idx in range(20):
            a = _schedule(AGGRESSIVE, 11, round_idx, 32)
            b = _schedule(AGGRESSIVE, 11, round_idx, 32)
            for mask_a, mask_b in zip(a, b):
                assert np.array_equal(mask_a, mask_b)

    def test_different_seeds_differ(self):
        a = _schedule(AGGRESSIVE, 1, 0, 256)
        b = _schedule(AGGRESSIVE, 2, 0, 256)
        assert not np.array_equal(a[0], b[0])

    def test_zero_fault_plan_schedules_nothing(self):
        for round_idx in range(10):
            for mask in _schedule(FaultConfig(), 7, round_idx, 64):
                assert not mask.any()

    def test_rates_approximately_respected(self):
        dropout, corrupt, delay = (
            np.concatenate(masks)
            for masks in zip(*(_schedule(AGGRESSIVE, 0, r, 1000) for r in range(20)))
        )
        assert abs(dropout.mean() - 0.2) < 0.02
        assert abs((delay > 0).mean() - 0.15) < 0.02
        assert abs(corrupt.mean() - 0.1) < 0.02
        # At most one fault fires per client.
        assert not (dropout & corrupt).any()
        assert not ((delay > 0) & (dropout | corrupt)).any()

    def test_straggler_delays_in_range(self):
        _, _, delay = _schedule(AGGRESSIVE, 0, 0, 2000)
        stragglers = delay > 0
        assert stragglers.any()
        assert (delay[stragglers] <= 3).all()


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
        assert gated.transit is None
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
        transit = UploadTransit(config, AsyncConfig(), seed=0)
        grad = np.array([[1.0, 2.0]])
        update = ClientUpdate(
            user_id=0, item_ids=np.array([1]), item_grads=grad.copy()
        )
        first = transit.sync_round(
            from_updates([update]), [0], round_idx=0
        )
        assert first.num_clients == 0  # deferred, not applied
        assert transit.pending == 1
        arrivals = transit.sync_round(UpdateBatch.empty(2), [], round_idx=1)
        assert arrivals.num_clients == 1
        assert np.array_equal(arrivals.item_grads, grad * 0.5)
        assert transit.fault_counts()["stale_applied"] == 1

    def test_uploads_parked_counts_in_flight(self, tiny_dataset):
        cfg = _config(
            rounds=3,
            faults=FaultConfig(straggler_rate=0.5, straggler_max_delay=3),
        )
        result = FederatedSimulation(cfg, tiny_dataset).run()
        stats = result.fault_stats
        assert stats.deferred_uploads == stats.stale_applied + stats.uploads_parked
        assert stats.uploads_parked > 0


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
        server.apply_batch(from_updates([poison, honest]))
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
                server.apply_batch(from_updates(updates))
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
        server.apply_batch(from_updates([self._update(0, np.ones((2, 2)))]))
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
        return from_updates(updates)

    def test_all_true_returns_same_object(self):
        batch = self._batch()
        assert batch.select_clients(np.ones(4, dtype=bool)) is batch

    def test_subset_matches_materialised_reference(self):
        batch = self._batch()
        keep = np.array([True, False, True, True])
        selected = batch.select_clients(keep)
        expected = from_updates(
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
# The transit's staleness buffer (properties: tests/test_async_properties.py)
# ----------------------------------------------------------------------

def _buffer() -> UploadTransit:
    return UploadTransit(FaultConfig(staleness_discount=0.5), AsyncConfig(), seed=0)


class TestStalenessBuffer:
    def test_fifo_per_round(self):
        buffer = _buffer()
        for tag in range(3):
            buffer.park(_part(tag), origin=4, due=5)
        buffer.park(_part(9), origin=4, due=6)
        assert buffer.pending == 4
        assert buffer.drain(5).user_ids.tolist() == [0, 1, 2]
        assert buffer.pending == 1
        assert buffer.drain(5).num_clients == 0

    def test_state_roundtrip(self):
        buffer = _buffer()
        buffer.park(_part(9), origin=1, due=2)
        restored = _buffer()
        restored.restore(buffer.state())
        assert restored.pending == 1
        assert restored.drain(2).user_ids.tolist() == [9]


def _part(user_id: int) -> UpdateBatch:
    return from_updates(
        [ClientUpdate(user_id=user_id, item_ids=np.array([0]), item_grads=np.zeros((1, 2)))]
    )
