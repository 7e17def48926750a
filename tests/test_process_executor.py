"""Multi-process round executor: the bit-identity contract at scale.

The contract: routing benign round computation through
:class:`~repro.federated.batch_engine.ProcessRoundExecutor` (forked
workers sharing the store's fork-inherited mappings) is a
pure throughput knob — every trajectory is bit-identical to the
one-heap-shard single-process reference, across attacks x defenses x
models x kernel backends, through worker crashes, and across
checkpoint/resume in either direction (heap checkpoint resumed sharded
and vice versa).

The executor is a compute provider, not a mode: the asynchronous event
loop trains its waves through it with the same bits (and the same
checkpoints) as in-process.

Also here: the combinations the executor must reject *loudly* instead
of silently degrading — too few workers, a heap-backed store, the loop
engine — and that a rejected configuration leaves no segment behind.
"""

from __future__ import annotations

import dataclasses
import os
import signal

import numpy as np
import pytest

from reference import LoopSimulation
from repro import kernels
from repro.config import (
    AsyncConfig,
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    ShardingConfig,
    TrainConfig,
)
from repro.datasets.base import InteractionDataset
from repro.federated.batch_engine import ProcessRoundExecutor
from repro.federated.shards import list_repro_segments
from repro.federated.simulation import FederatedSimulation
from repro.kernels import NativeKernelsUnavailable

try:
    NATIVE = kernels.resolve("native")
    NATIVE_ERROR = None
except NativeKernelsUnavailable as exc:  # pragma: no cover - CI has a toolchain
    NATIVE = None
    NATIVE_ERROR = str(exc)

needs_native = pytest.mark.skipif(
    NATIVE is None, reason=f"native backend unavailable: {NATIVE_ERROR}"
)

KERNEL_BACKENDS = ["numpy"] + (["native"] if NATIVE is not None else [])

SHARDED = ShardingConfig(num_shards=4, round_workers=2)


def sweep_config(
    *,
    kind: str = "mf",
    attack: str = "pieck_uea",
    defense: str = "norm_bound",
    sharding: ShardingConfig = ShardingConfig(),
    kernel: str = "numpy",
    lr_range: tuple[float, float] | None = None,
    negative_ratio: int = 1,
    rounds: int = 6,
    asynchrony: AsyncConfig = AsyncConfig(),
) -> ExperimentConfig:
    """Seconds-scale config still exercising mining, poison, defense."""
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.08, seed=11),
        model=ModelConfig(kind=kind, embedding_dim=6, mlp_layers=(8,), seed=11),
        train=TrainConfig(
            rounds=rounds,
            users_per_round=12,
            lr=0.5 if kind == "mf" else 0.05,
            eval_every=0,
            kernels=kernel,
            client_lr_range=lr_range,
            negative_ratio=negative_ratio,
        ),
        attack=(
            AttackConfig(name=attack, malicious_ratio=0.15, mining_rounds=2)
            if attack != "none"
            else None
        ),
        defense=DefenseConfig(name=defense, assumed_malicious_ratio=0.15),
        sharding=sharding,
        asynchrony=asynchrony,
        seed=11,
    )


def run_sim(config: ExperimentConfig, *, kill_worker_at: int | None = None):
    """Run every round; returns the final-state dict for comparison."""
    with FederatedSimulation(config) as sim:
        for round_idx in range(config.train.rounds):
            if round_idx == kill_worker_at:
                victim = sim.executor._workers.processes[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()
            sim.run_round(round_idx)
        return {
            "items": sim.model.item_embeddings.copy(),
            "users": sim.user_embedding_matrix().copy(),
            "params": [p.copy() for p in sim.model.interaction_params()],
            "process_rounds": (
                sim._batch_engine.process_rounds if sim.executor else 0
            ),
            "respawns": sim.executor.respawns if sim.executor else 0,
        }


def assert_identical(a: dict, b: dict) -> None:
    assert a["items"].tobytes() == b["items"].tobytes()
    assert a["users"].tobytes() == b["users"].tobytes()
    for pa, pb in zip(a["params"], b["params"]):
        assert pa.tobytes() == pb.tobytes()


# ----------------------------------------------------------------------
# Single- vs multi-process parity
# ----------------------------------------------------------------------


class TestExecutorParity:
    def test_fast_leg_with_client_lr_range(self):
        """The everyday leg: attack + defense + per-client rates."""
        dense = run_sim(sweep_config(lr_range=(0.05, 0.5)))
        multi = run_sim(
            sweep_config(lr_range=(0.05, 0.5), sharding=SHARDED)
        )
        assert multi["process_rounds"] == 6, "a round fell back in-process"
        assert multi["respawns"] == 0
        assert_identical(dense, multi)

    def test_negative_ratio_four_parity(self):
        dense = run_sim(sweep_config(negative_ratio=4))
        multi = run_sim(sweep_config(negative_ratio=4, sharding=SHARDED))
        assert multi["process_rounds"] == 6, "a round fell back in-process"
        assert_identical(dense, multi)

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    @pytest.mark.parametrize("defense", ["none", "norm_bound", "median", "krum"])
    @pytest.mark.parametrize("attack", ["none", "pieck_uea", "pieck_ipe"])
    def test_cross_product_parity(self, attack, defense, kind, kernel):
        dense = run_sim(
            sweep_config(kind=kind, attack=attack, defense=defense, kernel=kernel)
        )
        multi = run_sim(
            sweep_config(
                kind=kind,
                attack=attack,
                defense=defense,
                kernel=kernel,
                sharding=SHARDED,
            )
        )
        assert multi["process_rounds"] == 6
        assert_identical(dense, multi)

    @pytest.mark.parametrize("defense", ["regularization", "hybrid", "coordinated"])
    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    def test_client_regularization_parity(self, kind, defense):
        """The defended clients' miner block stays in the parent; the
        workers get each participant's mined set with its task.  Forty
        of 75 users a round: most popular sets are mined by round 4."""

        def config(**kwargs):
            cfg = sweep_config(kind=kind, defense=defense, **kwargs)
            return dataclasses.replace(
                cfg, train=dataclasses.replace(cfg.train, users_per_round=40)
            )

        dense = run_sim(config())
        multi = run_sim(config(sharding=SHARDED))
        assert multi["process_rounds"] == 6, "a round fell back in-process"
        assert_identical(dense, multi)

    def test_sharded_single_process_parity(self):
        """Sharding without workers: pure store re-layout."""
        dense = run_sim(sweep_config())
        sharded = run_sim(
            sweep_config(sharding=ShardingConfig(num_shards=3))
        )
        assert sharded["process_rounds"] == 0
        assert_identical(dense, sharded)

    def test_no_segments_leak_after_close(self):
        before = {r["name"] for r in list_repro_segments()}
        run_sim(sweep_config(sharding=SHARDED, rounds=2))
        after = {r["name"] for r in list_repro_segments()}
        assert after - before == set()


# ----------------------------------------------------------------------
# Executor x asynchrony: waves train on the workers, same bits
# ----------------------------------------------------------------------

#: Uploads spread over virtual time, some lost, rounds closing early:
#: stale uploads, a live event heap and a non-empty buffer at every
#: checkpoint boundary.
BUSY_ASYNC = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=6.0,
    compute_mean=0.4,
    network_mean=0.3,
    churn_rate=0.15,
    buffer_size=8,
)


class TestExecutorUnderAsynchrony:
    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    def test_degenerate_async_equals_sync_batch(self, kind):
        sync = run_sim(sweep_config(kind=kind))
        multi = run_sim(
            sweep_config(
                kind=kind, sharding=SHARDED, asynchrony=AsyncConfig(enabled=True)
            )
        )
        assert multi["process_rounds"] >= 6, "a wave fell back in-process"
        assert_identical(sync, multi)

    @pytest.mark.parametrize("attack", ["none", "pieck_uea"])
    def test_busy_schedule_equals_in_process_async(self, attack):
        with FederatedSimulation(
            sweep_config(attack=attack, asynchrony=BUSY_ASYNC)
        ) as sim:
            in_process = _final_state(sim, sim.run())
            stats = sim.async_stats()
        assert stats.stale_applied and stats.uploads_cancelled
        with FederatedSimulation(
            sweep_config(attack=attack, asynchrony=BUSY_ASYNC, sharding=SHARDED)
        ) as sim:
            multi = _final_state(sim, sim.run())
            assert sim.async_stats() == stats
            assert sim._batch_engine.process_rounds == stats.waves_dispatched
        _assert_final_identical(multi, in_process)

    @pytest.mark.parametrize("stop_after", [2, 4])
    def test_resume_mid_run(self, tmp_path, stop_after):
        """The event heap, the buffer and the workers' view of the
        store all survive a process boundary."""
        with FederatedSimulation(sweep_config(asynchrony=BUSY_ASYNC)) as sim:
            ref = _final_state(sim, sim.run())
            ref_stats = sim.async_stats()
        cfg = sweep_config(asynchrony=BUSY_ASYNC, sharding=SHARDED)
        ckpt_dir = str(tmp_path / "ckpt")
        with FederatedSimulation(cfg) as first:
            first.run(
                rounds=stop_after, checkpoint_dir=ckpt_dir, checkpoint_every=1
            )
        with FederatedSimulation(cfg) as resumed:
            result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=1)
            assert resumed.async_stats() == ref_stats
            _assert_final_identical(_final_state(resumed, result), ref)


# ----------------------------------------------------------------------
# Chaos: a SIGKILLed worker must not change the trajectory
# ----------------------------------------------------------------------


class TestChaos:
    def test_killed_worker_respawns_bit_identical(self):
        dense = run_sim(sweep_config())
        chaos = run_sim(sweep_config(sharding=SHARDED), kill_worker_at=3)
        assert chaos["respawns"] >= 1, "SIGKILL was absorbed silently"
        assert chaos["process_rounds"] == 6
        assert_identical(dense, chaos)


# ----------------------------------------------------------------------
# Loud rejections — never a silent fallback
# ----------------------------------------------------------------------


class TestGuards:
    def test_single_worker_rejected(self):
        with FederatedSimulation(sweep_config(sharding=SHARDED)) as sim:
            with pytest.raises(ValueError, match="num_workers"):
                ProcessRoundExecutor(
                    sim.model, sim.config.train, 11, sim.state, 1
                )

    def test_heap_store_rejected(self):
        cfg = sweep_config()
        with FederatedSimulation(cfg) as sim:
            assert sim.state.backend == "heap"
            with pytest.raises(ValueError, match="heap"):
                ProcessRoundExecutor(sim.model, cfg.train, 11, sim.state, 2)

    def test_loop_engine_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            LoopSimulation(sweep_config(sharding=SHARDED))

    @pytest.mark.parametrize("num_shards, num_users", [(1, None), (2, 1)])
    def test_one_worker_after_the_cap_rejected(self, num_shards, num_users):
        """Workers are capped at the shard count, and a single one is
        no executor: refused before any segment exists.  Two shards
        over one user resolve to one."""
        cfg = sweep_config(
            sharding=ShardingConfig(num_shards=num_shards, round_workers=2)
        )
        dataset = None
        if num_users == 1:
            dataset = InteractionDataset.from_csr(
                "one-user", 1, 10, np.array([0, 3]), np.array([1, 2, 3]),
                np.array([4]),
            )
        before = {r["name"] for r in list_repro_segments()}
        with pytest.raises(ValueError, match="round_workers=2.*num_shards="):
            FederatedSimulation(cfg, dataset)
        assert {r["name"] for r in list_repro_segments()} - before == set()

    def test_workers_capped_at_shard_count(self):
        cfg = sweep_config(
            sharding=ShardingConfig(num_shards=2, round_workers=8)
        )
        with FederatedSimulation(cfg) as sim:
            assert sim.executor.num_workers == 2


# ----------------------------------------------------------------------
# Checkpoint/resume bit-identity with the sharded store
# ----------------------------------------------------------------------


def _final_state(sim: FederatedSimulation, result) -> dict:
    return {
        "exposure": result.exposure,
        "hit_ratio": result.hit_ratio,
        "rounds_run": result.rounds_run,
        "items": sim.model.item_embeddings.copy(),
        "users": sim.user_embedding_matrix().copy(),
        "params": [p.copy() for p in sim.model.interaction_params()],
        "history": result.history,
    }


def _assert_final_identical(a: dict, b: dict) -> None:
    assert a["exposure"] == b["exposure"]
    assert a["hit_ratio"] == b["hit_ratio"]
    assert a["rounds_run"] == b["rounds_run"]
    assert a["items"].tobytes() == b["items"].tobytes()
    assert a["users"].tobytes() == b["users"].tobytes()
    for pa, pb in zip(a["params"], b["params"]):
        assert pa.tobytes() == pb.tobytes()
    assert a["history"] == b["history"]


class TestCheckpointBitIdentity:
    def _reference(self, cfg):
        with FederatedSimulation(cfg) as sim:
            return _final_state(sim, sim.run())

    @pytest.mark.parametrize("stop_after", [2, 3, 5])
    def test_resume_at_every_boundary(self, tmp_path, stop_after):
        cfg = sweep_config(rounds=6, sharding=SHARDED)
        ref = self._reference(sweep_config(rounds=6))
        ckpt_dir = str(tmp_path / f"ckpt-{stop_after}")
        with FederatedSimulation(cfg) as first:
            first.run(
                rounds=stop_after, checkpoint_dir=ckpt_dir, checkpoint_every=1
            )
        with FederatedSimulation(cfg) as resumed:
            result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=1)
            state = _final_state(resumed, result)
        _assert_final_identical(state, ref)

    def test_dense_checkpoint_resumes_sharded(self, tmp_path):
        """The digest excludes sharding: cross-restore must work."""
        ref = self._reference(sweep_config(rounds=6))
        ckpt_dir = str(tmp_path / "ckpt")
        with FederatedSimulation(sweep_config(rounds=6)) as dense_first:
            dense_first.run(
                rounds=3, checkpoint_dir=ckpt_dir, checkpoint_every=3
            )
        cfg = sweep_config(rounds=6, sharding=SHARDED)
        with FederatedSimulation(cfg) as resumed:
            result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=3)
            state = _final_state(resumed, result)
        _assert_final_identical(state, ref)

    def test_sharded_checkpoint_resumes_dense(self, tmp_path):
        ref = self._reference(sweep_config(rounds=6))
        ckpt_dir = str(tmp_path / "ckpt")
        cfg = sweep_config(rounds=6, sharding=SHARDED)
        with FederatedSimulation(cfg) as sharded_first:
            sharded_first.run(
                rounds=3, checkpoint_dir=ckpt_dir, checkpoint_every=3
            )
        with FederatedSimulation(sweep_config(rounds=6)) as resumed:
            result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=3)
            state = _final_state(resumed, result)
        _assert_final_identical(state, ref)

    def test_config_digest_ignores_sharding(self):
        dense_cfg = sweep_config()
        sharded_cfg = sweep_config(sharding=SHARDED)
        with FederatedSimulation(dense_cfg) as dense:
            with FederatedSimulation(sharded_cfg) as sharded:
                assert dense.config_digest == sharded.config_digest

    def test_process_rounds_counter_survives_resume(self, tmp_path):
        cfg = sweep_config(rounds=6, sharding=SHARDED)
        ckpt_dir = str(tmp_path / "ckpt")
        with FederatedSimulation(cfg) as first:
            first.run(rounds=3, checkpoint_dir=ckpt_dir, checkpoint_every=3)
            assert first._batch_engine.process_rounds == 3
        with FederatedSimulation(cfg) as resumed:
            resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=3)
            assert resumed._batch_engine.process_rounds == 6

    @needs_native
    def test_native_kernel_resume_sharded(self, tmp_path):
        cfg = sweep_config(rounds=6, kernel="native", sharding=SHARDED)
        ref = self._reference(sweep_config(rounds=6, kernel="native"))
        ckpt_dir = str(tmp_path / "ckpt")
        with FederatedSimulation(cfg) as first:
            first.run(rounds=4, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        with FederatedSimulation(cfg) as resumed:
            result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=2)
            state = _final_state(resumed, result)
        _assert_final_identical(state, ref)
