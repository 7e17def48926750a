"""Checkpoint/resume: the bit-identity contract.

The contract under test: a run interrupted at any checkpoint boundary
and resumed in a *fresh process-equivalent* simulation (new object, same
config) produces final state — metrics, embeddings, interaction
parameters, fault counters, audit log, history — **bit-identical** to
the same run never interrupted.  Holds on the batch engine and the
per-client reference loop, under attacks,
under fault injection, and on the native kernel backend.

Also here: the failure modes that must be loud — config digest
mismatch, a checkpoint past the requested rounds, version mismatch,
corrupt files — and the
crash-safety of the atomic writer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle

import numpy as np
import pytest

from reference import LoopSimulation
from repro import kernels, persistence
from repro.config import (
    AttackConfig,
    DefenseConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
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

#: Simulation class per engine leg of a parametrised test.
ENGINES = {"batch": FederatedSimulation, "loop": LoopSimulation}

FAULTS = FaultConfig(
    dropout_rate=0.15,
    straggler_rate=0.1,
    straggler_max_delay=2,
    corruption_rate=0.05,
    corruption_mode="nan",
    min_quorum=2,
)


def _config(model_kind: str = "mf", **kwargs) -> ExperimentConfig:
    if model_kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        train = TrainConfig(rounds=10, users_per_round=16, lr=1.0, eval_every=0)
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        train = TrainConfig(rounds=10, users_per_round=16, lr=0.05, eval_every=0)
    kwargs.setdefault(
        "attack", AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2)
    )
    return ExperimentConfig(model=model, train=train, seed=3, **kwargs)


def _final_state(sim: FederatedSimulation, result) -> dict:
    return {
        "exposure": result.exposure,
        "hit_ratio": result.hit_ratio,
        "rounds_run": result.rounds_run,
        "fault_stats": result.fault_stats,
        "items": sim.model.item_embeddings.copy(),
        "params": [p.copy() for p in sim.model.interaction_params()],
        "users": sim.state.snapshot_embeddings(),
        "history": result.history,
    }


def _assert_identical(a: dict, b: dict) -> None:
    assert a["exposure"] == b["exposure"]
    assert a["hit_ratio"] == b["hit_ratio"]
    assert a["rounds_run"] == b["rounds_run"]
    assert a["fault_stats"] == b["fault_stats"]
    assert a["items"].tobytes() == b["items"].tobytes()
    for pa, pb in zip(a["params"], b["params"]):
        assert pa.tobytes() == pb.tobytes()
    assert a["users"].tobytes() == b["users"].tobytes()
    assert a["history"] == b["history"]


def _interrupted(cfg, dataset, engine, tmp_path, *, stop_after: int, every: int = 3):
    """Run ``stop_after`` rounds with checkpointing, then resume fresh."""
    ckpt_dir = str(tmp_path / "ckpt")
    first = ENGINES[engine](cfg, dataset)
    first.run(rounds=stop_after, checkpoint_dir=ckpt_dir, checkpoint_every=every)
    # A brand-new simulation object stands in for a fresh process.
    resumed = ENGINES[engine](cfg, dataset)
    result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=every)
    return _final_state(resumed, result)


def _with_train(cfg: ExperimentConfig, **train) -> ExperimentConfig:
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **train))


def _uninterrupted(cfg, dataset) -> dict:
    sim = FederatedSimulation(cfg, dataset)
    return _final_state(sim, sim.run())


def _resumed_across(written_cfg, resumed_cfg, dataset, tmp_path, *, stop_after=7):
    """Checkpoint under one config, resume under another (a refused
    checkpoint raises instead of restarting)."""
    ckpt_dir = str(tmp_path / "ckpt")
    FederatedSimulation(written_cfg, dataset).run(
        rounds=stop_after, checkpoint_dir=ckpt_dir, checkpoint_every=3
    )
    resumed = FederatedSimulation(resumed_cfg, dataset)
    result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=3)
    return _final_state(resumed, result)


class TestResumeBitIdentity:
    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_mf_attack_resume(self, tiny_dataset, tmp_path, engine):
        cfg = _config("mf")
        reference = ENGINES[engine](cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())
        _assert_identical(
            _interrupted(cfg, tiny_dataset, engine, tmp_path, stop_after=7),
            ref_state,
        )

    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_faulted_ncf_resume(self, tiny_dataset, tmp_path, engine):
        # Hardest case: NCF params, attack cohort, fault schedule with
        # in-flight stale uploads crossing the checkpoint boundary.
        cfg = _config("ncf", faults=FAULTS)
        reference = ENGINES[engine](cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())
        assert ref_state["fault_stats"].any_fault
        _assert_identical(
            _interrupted(cfg, tiny_dataset, engine, tmp_path, stop_after=5, every=5),
            ref_state,
        )

    def test_regularized_resume(self, tiny_dataset, tmp_path):
        # The store's CohortMiner block — accumulators, frozen sets and
        # the live round snapshots of still-mining clients — crosses
        # the boundary.
        cfg = _config("mf", defense=DefenseConfig(name="regularization"))
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())
        assert reference.state.miner.ready.any()
        _assert_identical(
            _interrupted(cfg, tiny_dataset, "batch", tmp_path, stop_after=3),
            ref_state,
        )

    def test_resume_at_every_boundary(self, tiny_dataset, tmp_path):
        # The contract holds wherever the interrupt lands, not just at
        # one lucky boundary.
        cfg = _config("mf", faults=FAULTS)
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())
        for stop_after in (2, 4, 8):
            state = _interrupted(
                cfg, tiny_dataset, "batch", tmp_path / str(stop_after),
                stop_after=stop_after, every=2,
            )
            _assert_identical(state, ref_state)

    def test_history_survives_resume(self, tiny_dataset, tmp_path):
        cfg = dataclasses.replace(
            _config("mf"),
            train=TrainConfig(rounds=10, users_per_round=16, lr=1.0, eval_every=2),
        )
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())
        assert len(ref_state["history"]) > 1
        _assert_identical(
            _interrupted(cfg, tiny_dataset, "batch", tmp_path, stop_after=5, every=5),
            ref_state,
        )

    def test_audit_log_survives_resume(self, tiny_dataset, tmp_path):
        from repro.federated.audit import ServerAuditLog

        cfg = _config("mf", faults=FAULTS)
        ckpt_dir = str(tmp_path / "ckpt")
        reference = FederatedSimulation(cfg, tiny_dataset)
        reference.server.audit_log = ServerAuditLog()
        reference.run()

        first = FederatedSimulation(cfg, tiny_dataset)
        first.server.audit_log = ServerAuditLog()
        first.run(rounds=6, checkpoint_dir=ckpt_dir, checkpoint_every=3)
        resumed = FederatedSimulation(cfg, tiny_dataset)
        resumed.server.audit_log = ServerAuditLog()
        resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=3)

        ref_records = reference.server.audit_log.records
        res_records = resumed.server.audit_log.records
        assert len(ref_records) == len(res_records)
        for a, b in zip(ref_records, res_records):
            # Field-wise with equal_nan: the log records pre-gate, so
            # corrupted uploads legitimately carry NaN norms, and
            # dataclass == would fail on identical NaNs.
            for field in dataclasses.fields(a):
                va = getattr(a, field.name)
                vb = getattr(b, field.name)
                assert np.array_equal(va, vb, equal_nan=isinstance(va, float))

    @needs_native
    def test_native_backend_resume(self, tiny_dataset, tmp_path):
        # Kernels are a knob: a checkpoint resumes under any backend,
        # in either direction, bit-identically.
        cfg = _config("mf", faults=FAULTS)
        legs = [
            ("native", "native"),
            ("numpy", "native"),
            ("native", "numpy"),
            (None, "native"),
        ]
        for written, resumed in legs:
            _assert_identical(
                _resumed_across(
                    _with_train(cfg, kernels=written),
                    _with_train(cfg, kernels=resumed),
                    tiny_dataset,
                    tmp_path / f"{written}-{resumed}",
                ),
                _uninterrupted(_with_train(cfg, kernels=resumed), tiny_dataset),
            )

    def test_knob_change_resume(self, tiny_dataset, tmp_path):
        # Evaluation block size and an explicit numpy backend are knobs
        # too: neither refuses the checkpoint nor moves a bit.
        cfg = _with_train(_config("mf", faults=FAULTS), eval_every=2)
        legs = [
            ({}, {"kernels": "numpy"}),
            ({"kernels": "numpy"}, {}),
            ({}, {"eval_chunk_users": 7}),
            ({"eval_chunk_users": 7}, {"eval_chunk_users": 3}),
        ]
        for index, (written, resumed) in enumerate(legs):
            _assert_identical(
                _resumed_across(
                    _with_train(cfg, **written),
                    _with_train(cfg, **resumed),
                    tiny_dataset,
                    tmp_path / str(index),
                ),
                _uninterrupted(cfg, tiny_dataset),
            )


class TestResumeGuards:
    def _checkpointed(self, cfg, dataset, tmp_path) -> str:
        ckpt_dir = str(tmp_path / "ckpt")
        sim = FederatedSimulation(cfg, dataset)
        sim.run(rounds=4, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        return ckpt_dir

    def test_config_mismatch_raises(self, tiny_dataset, tmp_path):
        cfg = _config("mf")
        ckpt_dir = self._checkpointed(cfg, tiny_dataset, tmp_path)
        other = dataclasses.replace(cfg, seed=99)
        with pytest.raises(ValueError, match="config"):
            FederatedSimulation(other, tiny_dataset).run(
                checkpoint_dir=ckpt_dir, checkpoint_every=2
            )

    def test_checkpoint_past_requested_rounds_raises(self, tiny_dataset, tmp_path):
        # A round-8 checkpoint must not be resumed by a 4-round run: it
        # would report rounds_run=4 while scoring the round-8 model.
        cfg = _config("mf", attack=None)
        cfg = _with_train(cfg, eval_every=2)
        ckpt_dir = str(tmp_path / "ckpt")
        FederatedSimulation(cfg, tiny_dataset).run(
            rounds=8, checkpoint_dir=ckpt_dir, checkpoint_every=4
        )
        assert persistence.latest_checkpoint(ckpt_dir).endswith("r000008.pkl")
        sim = FederatedSimulation(cfg, tiny_dataset)
        before = sim.model.snapshot_items()
        with pytest.raises(ValueError, match=r"round 8, past the 4 rounds"):
            sim.run(rounds=4, checkpoint_dir=ckpt_dir, checkpoint_every=4)
        assert np.array_equal(sim.model.item_embeddings, before)

    def test_version_mismatch_raises(self, tiny_dataset, tmp_path):
        cfg = _config("mf")
        ckpt_dir = self._checkpointed(cfg, tiny_dataset, tmp_path)
        path = persistence.latest_checkpoint(ckpt_dir)
        assert path is not None
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["version"] = "ckpt-v0"
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        with pytest.raises(ValueError, match="version"):
            persistence.load_checkpoint(path)

    def test_garbage_file_raises(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        with open(path, "wb") as handle:
            pickle.dump(["not", "a", "checkpoint"], handle)
        with pytest.raises(ValueError):
            persistence.load_checkpoint(path)

    def test_fresh_run_ignores_checkpoint(self, tiny_dataset, tmp_path):
        cfg = _config("mf")
        ckpt_dir = self._checkpointed(cfg, tiny_dataset, tmp_path)
        result = FederatedSimulation(cfg, tiny_dataset).run(
            checkpoint_dir=ckpt_dir, checkpoint_every=2, resume=False
        )
        reference = FederatedSimulation(cfg, tiny_dataset).run()
        assert result.exposure == reference.exposure
        assert result.hit_ratio == reference.hit_ratio


class TestRetention:
    """Versioned checkpoints with ``checkpoint_keep`` pruning."""

    def test_keep_bounds_file_count(self, tiny_dataset, tmp_path):
        cfg = _config("mf")
        ckpt_dir = str(tmp_path / "ckpt")
        sim = FederatedSimulation(cfg, tiny_dataset)
        sim.run(rounds=9, checkpoint_dir=ckpt_dir, checkpoint_every=2,
                checkpoint_keep=2)
        rounds = [r for r, _ in persistence.list_checkpoints(ckpt_dir)]
        # Boundaries 2,4,6,8 were written; only the newest two survive.
        assert rounds == [6, 8]

    def test_resume_from_newest_survivor_is_bit_identical(
        self, tiny_dataset, tmp_path
    ):
        cfg = _config("mf", faults=FAULTS)
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())

        ckpt_dir = str(tmp_path / "ckpt")
        first = FederatedSimulation(cfg, tiny_dataset)
        first.run(rounds=7, checkpoint_dir=ckpt_dir, checkpoint_every=2,
                  checkpoint_keep=2)
        assert persistence.latest_checkpoint(ckpt_dir).endswith(
            "checkpoint-r000006.pkl"
        )
        resumed = FederatedSimulation(cfg, tiny_dataset)
        result = resumed.run(
            checkpoint_dir=ckpt_dir, checkpoint_every=2, checkpoint_keep=2
        )
        _assert_identical(_final_state(resumed, result), ref_state)

    def test_rolling_checkpoint_name_is_not_a_resume_candidate(
        self, tiny_dataset, tmp_path
    ):
        # The pre-retention rolling name ``checkpoint.pkl`` is no
        # longer read: it is neither the latest checkpoint nor a
        # resume candidate, so a run over such a directory starts at
        # round 0 and writes its own versioned files.
        cfg = _config("mf")
        ckpt_dir = str(tmp_path / "ckpt")
        first = FederatedSimulation(cfg, tiny_dataset)
        first.run(rounds=4, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        rolling = os.path.join(ckpt_dir, "checkpoint.pkl")
        os.replace(persistence.latest_checkpoint(ckpt_dir), rolling)
        for _, stale in persistence.list_checkpoints(ckpt_dir):
            os.unlink(stale)
        assert persistence.latest_checkpoint(ckpt_dir) is None
        assert persistence.resumable_checkpoints(ckpt_dir) == []

        restarted = FederatedSimulation(cfg, tiny_dataset)
        restarted.run(rounds=2, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        assert [r for r, _ in persistence.list_checkpoints(ckpt_dir)] == [2]

    def test_prune_rejects_bad_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            persistence.prune_checkpoints(str(tmp_path), 0)

    def test_run_rejects_bad_keep(self, tiny_dataset, tmp_path):
        sim = FederatedSimulation(_config("mf"), tiny_dataset)
        with pytest.raises(ValueError, match="checkpoint_keep"):
            sim.run(checkpoint_dir=str(tmp_path), checkpoint_keep=0)

    def test_foreign_files_ignored(self, tmp_path):
        d = str(tmp_path)
        open(os.path.join(d, "checkpoint-rabc.pkl"), "w").close()
        open(os.path.join(d, "checkpoint-r000004.pkl.123.tmp"), "w").close()
        open(os.path.join(d, "notes.txt"), "w").close()
        assert persistence.list_checkpoints(d) == []
        assert persistence.latest_checkpoint(d) is None
        assert persistence.prune_checkpoints(d, 1) == []


class TestCorruptionFallback:
    """Verify-on-read: torn checkpoints quarantine, resume falls back."""

    def test_bit_flipped_checkpoint_raises_integrity_error(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        persistence.save_checkpoint(path, {"round": 4})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x04
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(persistence.IntegrityError):
            persistence.load_checkpoint(path)
        # The corrupt file was moved aside, never silently trusted.
        assert not os.path.exists(path)
        assert os.path.exists(path + persistence.QUARANTINE_SUFFIX)

    def test_truncated_checkpoint_raises_integrity_error(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        persistence.save_checkpoint(path, {"round": 4})
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(persistence.IntegrityError):
            persistence.load_checkpoint(path)
        assert os.path.exists(path + persistence.QUARANTINE_SUFFIX)

    def test_v2_checkpoint_is_refused_by_name(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        with open(path, "wb") as handle:
            pickle.dump({"version": "ckpt-v2", "payload": {"round": 6}}, handle)
        with pytest.raises(ValueError, match="ckpt-v2") as caught:
            persistence.load_checkpoint(path)
        # Unreadable by design, not rot: left in place, not quarantined.
        assert not isinstance(caught.value, persistence.IntegrityError)
        assert os.path.exists(path)

    @staticmethod
    def _assert_refused_by_name(tmp_path, version: str) -> None:
        path = str(tmp_path / "checkpoint.pkl")
        payload = pickle.dumps({"round": 6})
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "version": version,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "payload": payload,
                },
                handle,
            )
        with pytest.raises(ValueError, match=version) as caught:
            persistence.load_checkpoint(path)
        assert not isinstance(caught.value, persistence.IntegrityError)
        assert os.path.exists(path)

    def test_v3_checkpoint_is_refused_by_name(self, tmp_path):
        # v3 buffers held per-client uploads; v4 holds UpdateBatch parts.
        self._assert_refused_by_name(tmp_path, "ckpt-v3")

    def test_v4_checkpoint_is_refused_by_name(self, tmp_path):
        # v4 pickled adversary and regularizer objects; v5 holds
        # {component: state()} arrays.
        self._assert_refused_by_name(tmp_path, "ckpt-v4")

    def test_v5_checkpoint_is_refused_by_name(self, tmp_path):
        # v5 carried an engine name and the server's materialized_rounds
        # counter; v6 has neither.
        self._assert_refused_by_name(tmp_path, "ckpt-v5")

    def test_v6_checkpoint_is_refused_by_name(self, tmp_path):
        # v6 stored per-user regularizer states; v7 stores the store's
        # CohortMiner arrays.
        self._assert_refused_by_name(tmp_path, "ckpt-v6")

    def test_resume_falls_back_past_corrupt_newest(self, tiny_dataset, tmp_path):
        # Corrupt the newest retained checkpoint: resume must skip it
        # (quarantining it) and restart from the older survivor —
        # still bit-identical to the uninterrupted reference.
        cfg = _config("mf", faults=FAULTS)
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())

        ckpt_dir = str(tmp_path / "ckpt")
        first = FederatedSimulation(cfg, tiny_dataset)
        first.run(rounds=7, checkpoint_dir=ckpt_dir, checkpoint_every=2,
                  checkpoint_keep=3)
        newest = persistence.latest_checkpoint(ckpt_dir)
        blob = open(newest, "rb").read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])

        resumed = FederatedSimulation(cfg, tiny_dataset)
        result = resumed.run(
            checkpoint_dir=ckpt_dir, checkpoint_every=2, checkpoint_keep=3
        )
        _assert_identical(_final_state(resumed, result), ref_state)
        assert os.path.exists(newest + persistence.QUARANTINE_SUFFIX)

    def test_resume_with_all_checkpoints_corrupt_restarts_clean(
        self, tiny_dataset, tmp_path
    ):
        cfg = _config("mf")
        reference = FederatedSimulation(cfg, tiny_dataset)
        ref_state = _final_state(reference, reference.run())

        ckpt_dir = str(tmp_path / "ckpt")
        first = FederatedSimulation(cfg, tiny_dataset)
        first.run(rounds=6, checkpoint_dir=ckpt_dir, checkpoint_every=2)
        for _, path in persistence.list_checkpoints(ckpt_dir):
            with open(path, "wb") as handle:
                handle.write(b"\x00torn")

        resumed = FederatedSimulation(cfg, tiny_dataset)
        result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=2)
        # Nothing resumable survived: the run restarted from round 0
        # and still reproduces the reference exactly.
        _assert_identical(_final_state(resumed, result), ref_state)


class TestAtomicWrites:
    def test_checkpoint_write_failure_leaves_previous_file(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        persistence.save_checkpoint(path, {"round": 1})
        # Simulate a crash mid-write: the writer raising must leave the
        # old complete file untouched and no temp litter.
        with pytest.raises(RuntimeError):
            persistence._replace_into(
                path, lambda tmp: (_ for _ in ()).throw(RuntimeError("disk died"))
            )
        assert persistence.load_checkpoint(path)["round"] == 1
        assert os.listdir(tmp_path) == ["checkpoint.pkl"]

    def test_no_temp_litter_after_save(self, tmp_path):
        path = str(tmp_path / "checkpoint.pkl")
        persistence.save_checkpoint(path, {"round": 2})
        assert os.listdir(tmp_path) == ["checkpoint.pkl"]
        assert persistence.load_checkpoint(path)["round"] == 2
