"""fsck: offline integrity audit and its CLI front-end."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.federated.simulation import EvalRecord, SimulationResult
from repro.persistence import (
    QUARANTINE_SUFFIX,
    IntegrityError,
    checkpoint_path,
    fsck_paths,
    load_result,
    read_sweep_entry,
    save_checkpoint,
    save_result,
    save_sweep_entry,
)


def _result() -> SimulationResult:
    return SimulationResult(
        exposure=0.25,
        hit_ratio=0.5,
        targets=np.array([3, 7]),
        rounds_run=10,
        history=[EvalRecord(10, 0.25, 0.5)],
        seconds_per_round=0.01,
    )


def _populate(root) -> dict[str, str]:
    """A small tree with one of everything fsck understands."""
    paths = {}
    paths["entry"] = str(root / "cache" / "aaaa.json")
    save_sweep_entry(paths["entry"], key="aaaa", kind="er_hr", values=[[1.0, 2.0]])
    paths["result"] = str(root / "results" / "result.json")
    save_result(_result(), paths["result"])
    paths["checkpoint"] = checkpoint_path(str(root / "ckpt"), 10)
    save_checkpoint(paths["checkpoint"], {"round": 10})
    return paths


class TestFsckPaths:
    def test_clean_tree_verifies_everything(self, tmp_path):
        _populate(tmp_path)
        report = fsck_paths(str(tmp_path))
        assert report.clean
        assert report.verified == 3
        assert report.corrupt == 0
        assert report.corrupt_paths == []

    def test_bit_flip_detected_per_artifact(self, tmp_path):
        paths = _populate(tmp_path)
        for path in paths.values():
            blob = bytearray(open(path, "rb").read())
            blob[len(blob) // 2] ^= 0x10
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
        report = fsck_paths(str(tmp_path))
        assert not report.clean
        assert report.corrupt == 3
        assert sorted(report.corrupt_paths) == sorted(paths.values())
        # Without --repair nothing was moved.
        assert all(os.path.exists(path) for path in paths.values())

    def test_truncation_detected(self, tmp_path):
        paths = _populate(tmp_path)
        for path in paths.values():
            blob = open(path, "rb").read()
            with open(path, "wb") as handle:
                handle.write(blob[: len(blob) // 2])
        assert fsck_paths(str(tmp_path)).corrupt == 3

    def test_repair_quarantines_corrupt_files(self, tmp_path):
        paths = _populate(tmp_path)
        with open(paths["entry"], "w") as handle:
            handle.write("{ torn")
        report = fsck_paths(str(tmp_path), repair=True)
        assert report.corrupt == 1
        assert report.repaired == 1
        assert not os.path.exists(paths["entry"])
        assert os.path.exists(paths["entry"] + QUARANTINE_SUFFIX)
        # A second pass counts the specimen, and the tree is clean.
        second = fsck_paths(str(tmp_path), repair=True)
        assert second.clean
        assert second.quarantined_found == 1

    def test_digestless_entry_is_corrupt_and_a_cache_miss(self, tmp_path):
        entry = tmp_path / "cache" / "bbbb.json"
        entry.parent.mkdir()
        entry.write_text(json.dumps({"key": "bbbb", "values": [[1.0]]}))
        report = fsck_paths(str(tmp_path))
        assert not report.clean
        assert report.corrupt_paths == [str(entry)]
        # The sweep cache treats it like any bad digest: miss + quarantine.
        assert read_sweep_entry(str(entry)) == (None, "quarantined")
        assert os.path.exists(str(entry) + QUARANTINE_SUFFIX)

    def test_digestless_result_is_refused(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(
            json.dumps(
                {"exposure": 0.1, "hit_ratio": 0.2, "targets": [1],
                 "rounds_run": 3, "history": []}
            )
        )
        assert fsck_paths(str(tmp_path)).corrupt == 1
        with pytest.raises(IntegrityError, match="digest"):
            load_result(str(path))

    def test_v2_checkpoint_is_corrupt(self, tmp_path):
        path = checkpoint_path(str(tmp_path), 5)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump({"version": "ckpt-v2", "payload": {"round": 5}}, handle)
        report = fsck_paths(str(tmp_path))
        assert not report.clean
        assert report.corrupt_paths == [path]

    def test_foreign_files_skipped_untouched(self, tmp_path):
        foreign = tmp_path / "notes.json"
        foreign.write_text(json.dumps([1, 2, 3]))
        npz = tmp_path / "model.npz"
        npz.write_bytes(b"\x00\x01binary")
        report = fsck_paths(str(tmp_path), repair=True)
        assert report.clean
        assert report.skipped == 2
        assert foreign.exists() and npz.exists()

    def test_leases_and_tmp_counted_separately(self, tmp_path):
        (tmp_path / "aaaa.json.lease").write_text("{}")
        (tmp_path / "bbbb.json.12345.tmp").write_text("{ partial")
        report = fsck_paths(str(tmp_path))
        assert report.clean
        assert report.leases == 1
        assert report.skipped == 1

    def test_single_file_target(self, tmp_path):
        path = str(tmp_path / "entry.json")
        save_sweep_entry(path, key="k", kind="er_hr", values=[[1.0]])
        assert fsck_paths(path).verified == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsck_paths(str(tmp_path / "nope"))


class TestFsckCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["fsck", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 verified" in out
        assert "0 corrupt" in out

    def test_corrupt_tree_exits_nonzero_and_lists_paths(self, tmp_path, capsys):
        paths = _populate(tmp_path)
        with open(paths["entry"], "w") as handle:
            handle.write("{ torn")
        assert main(["fsck", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert paths["entry"] in out

    def test_repair_flag_quarantines(self, tmp_path, capsys):
        paths = _populate(tmp_path)
        with open(paths["entry"], "w") as handle:
            handle.write("{ torn")
        assert main(["fsck", "--repair", str(tmp_path)]) == 1
        assert os.path.exists(paths["entry"] + QUARANTINE_SUFFIX)
        assert main(["fsck", str(tmp_path)]) == 0

    def test_missing_path_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fsck", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err
