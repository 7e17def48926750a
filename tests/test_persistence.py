"""Tests for result/model persistence."""

import os

import numpy as np
import pytest

from repro.federated.simulation import EvalRecord, SimulationResult
from repro.models.mf import MFModel
from repro.models.ncf import NCFModel
from repro.persistence import load_model, load_result, save_model, save_result


def make_result():
    return SimulationResult(
        exposure=0.25,
        hit_ratio=0.5,
        targets=np.array([3, 7]),
        rounds_run=100,
        history=[EvalRecord(50, 0.1, 0.4), EvalRecord(100, 0.25, 0.5)],
        seconds_per_round=0.01,
    )


class TestResultRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run" / "result.json")
        original = make_result()
        save_result(original, path)
        loaded = load_result(path)
        assert loaded.exposure == original.exposure
        assert loaded.hit_ratio == original.hit_ratio
        np.testing.assert_array_equal(loaded.targets, original.targets)
        assert loaded.rounds_run == original.rounds_run
        assert len(loaded.history) == 2
        assert loaded.history[1].exposure == 0.25

    def test_item_history_not_persisted(self, tmp_path):
        path = str(tmp_path / "result.json")
        result = make_result()
        result.item_history = [np.zeros((2, 2))]
        save_result(result, path)
        assert load_result(path).item_history == []


class TestModelRoundtrip:
    def test_mf_roundtrip(self, tmp_path):
        path = str(tmp_path / "model.npz")
        source = MFModel(8, 4, seed=1)
        target = MFModel(8, 4, seed=2)
        save_model(source, path)
        load_model(target, path)
        np.testing.assert_array_equal(target.item_embeddings, source.item_embeddings)

    def test_ncf_roundtrip_includes_params(self, tmp_path):
        path = str(tmp_path / "model.npz")
        source = NCFModel(8, 4, mlp_layers=(8,), seed=1)
        target = NCFModel(8, 4, mlp_layers=(8,), seed=2)
        save_model(source, path)
        load_model(target, path)
        for a, b in zip(source.interaction_params(), target.interaction_params()):
            np.testing.assert_array_equal(a, b)

    def test_extension_added_automatically(self, tmp_path):
        path = str(tmp_path / "model")
        source = MFModel(4, 3, seed=0)
        save_model(source, path)
        load_model(MFModel(4, 3, seed=5), path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(MFModel(8, 4, seed=1), path)
        with pytest.raises(ValueError, match="does not match"):
            load_model(MFModel(9, 4, seed=1), path)

    def test_param_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(MFModel(8, 4, seed=1), path)
        with pytest.raises(ValueError, match="interaction parameters"):
            load_model(NCFModel(8, 4, mlp_layers=(8,), seed=1), path)


class TestFaultStatsRoundtrip:
    def test_fault_stats_persisted(self, tmp_path):
        from repro.federated.faults import FaultStats

        path = str(tmp_path / "result.json")
        original = make_result()
        original = SimulationResult(
            exposure=original.exposure,
            hit_ratio=original.hit_ratio,
            targets=original.targets,
            rounds_run=original.rounds_run,
            history=original.history,
            seconds_per_round=original.seconds_per_round,
            fault_stats=FaultStats(
                dropped_uploads=5,
                deferred_uploads=3,
                stale_applied=2,
                stale_dropped=1,
                max_staleness_applied=2,
                uploads_parked=1,
                corrupted_uploads=4,
                rejected_nonfinite=4,
                rejected_oversized=1,
                quorum_failed_rounds=1,
                quorum_dropped_uploads=2,
            ),
        )
        save_result(original, path)
        assert load_result(path).fault_stats == original.fault_stats

    def test_legacy_payload_defaults_to_zero_stats(self, tmp_path):
        import json

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        with open(path) as handle:
            payload = json.load(handle)
        from repro.persistence import json_digest

        del payload["fault_stats"]
        payload["sha256"] = json_digest(payload)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert not load_result(path).fault_stats.any_fault


class TestResultIntegrity:
    def test_saved_result_carries_verifying_digest(self, tmp_path):
        import json

        from repro.persistence import verify_json_digest

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        payload = json.load(open(path))
        assert verify_json_digest(payload)

    def test_bit_flipped_result_quarantined(self, tmp_path):
        import os

        from repro.persistence import IntegrityError, QUARANTINE_SUFFIX

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        blob = bytearray(open(path, "rb").read())
        # Flip a digit inside a float: JSON stays valid, digest doesn't.
        offset = blob.index(b"0.25") + 2
        blob[offset : offset + 1] = b"7"
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(IntegrityError):
            load_result(path)
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_torn_result_quarantined(self, tmp_path):
        import os

        from repro.persistence import IntegrityError, QUARANTINE_SUFFIX

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        with pytest.raises(IntegrityError):
            load_result(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_missing_result_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_result(str(tmp_path / "absent.json"))

    def test_digest_is_format_independent(self, tmp_path):
        # Reformatting the JSON (indentation, key order) must not break
        # verification: the digest covers the content, not the bytes.
        import json

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        payload = json.load(open(path))
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=None, sort_keys=False)
        assert load_result(path).exposure == 0.25


class TestBenchJsonIntegrity:
    def test_emit_bench_json_is_digest_stamped_and_atomic(
        self, tmp_path, monkeypatch
    ):
        import json
        import sys

        bench_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"
        )
        sys.path.insert(0, bench_dir)
        try:
            import _harness
        finally:
            sys.path.remove(bench_dir)
        monkeypatch.setattr(_harness, "RESULTS_DIR", str(tmp_path))
        from repro.persistence import verify_json_digest

        path = _harness.emit_bench_json("unit_test", {"metric": 1.5})
        payload = json.load(open(path))
        assert payload["bench"] == "unit_test"
        assert verify_json_digest(payload)
        # No temp litter next to the artifact.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_unit_test.json"
        ]

    def test_fsck_verifies_bench_files(self, tmp_path, monkeypatch):
        import sys

        bench_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"
        )
        sys.path.insert(0, bench_dir)
        try:
            import _harness
        finally:
            sys.path.remove(bench_dir)
        monkeypatch.setattr(_harness, "RESULTS_DIR", str(tmp_path))
        from repro.persistence import fsck_paths

        path = _harness.emit_bench_json("unit_test_fsck", {"metric": 2.0})
        assert fsck_paths(str(tmp_path)).verified == 1
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert fsck_paths(str(tmp_path)).corrupt == 1


class TestAtomicWrites:
    def test_result_save_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "result.json")
        save_result(make_result(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]

    def test_model_save_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(MFModel(4, 3, seed=0), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_failed_result_save_keeps_previous(self, tmp_path, monkeypatch):
        import json as json_module

        path = str(tmp_path / "result.json")
        save_result(make_result(), path)

        def explode(*args, **kwargs):
            raise RuntimeError("disk died")

        monkeypatch.setattr(json_module, "dump", explode)
        with pytest.raises(RuntimeError):
            save_result(make_result(), path)
        monkeypatch.undo()
        # The previous complete file survived the failed overwrite.
        assert load_result(path).exposure == 0.25
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]
