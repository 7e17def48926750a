"""Persistence: save and load experiment results and model state.

A reproduction harness lives or dies by being able to archive runs:
``save_result`` / ``load_result`` serialise a
:class:`repro.federated.SimulationResult` (metrics + history) as JSON,
``save_model`` / ``load_model`` checkpoint a global model's item
embeddings and interaction parameters as a NumPy archive,
``save_checkpoint`` / ``load_checkpoint`` store a *running*
simulation's full mutable state (see
:meth:`repro.federated.simulation.FederatedSimulation.run`'s
``checkpoint_dir``), and ``save_sweep_entry`` / ``load_sweep_entry``
store the sweep orchestrator's content-addressed per-cell cache
entries (see :mod:`repro.experiments.sweep`).

Every writer here is crash-safe: payloads land in a temp file in the
target directory and reach their final name through one atomic
``os.replace``, so a process killed mid-save leaves either the
previous complete file or no file — never a truncated one.

On top of crash-safe *writes*, this module provides end-to-end
*read* integrity: every sweep entry, checkpoint and result JSON
carries a sha256 digest of its own payload, written atomically with
the data.  Loaders verify the digest on read and **quarantine** files
that fail it (atomically moved aside to ``<name>.quarantined``, so the
corruption specimen survives for inspection while the loader reports a
miss or a structured :class:`IntegrityError` instead of silently
trusting flipped bits).  A recognised artifact *without* a valid
digest gets the same treatment — this repo wrote such files only in
its own history, and everything here is regenerable.  ``fsck_paths``
(surfaced as ``repro fsck``) walks a tree and reports the verified /
corrupt split.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from repro.federated.async_engine import AsyncStats
from repro.federated.faults import FaultStats
from repro.federated.simulation import EvalRecord, SimulationResult
from repro.models.base import RecommenderModel

__all__ = [
    "IntegrityError",
    "FsckReport",
    "fsck_paths",
    "json_digest",
    "verify_json_digest",
    "save_json_digested",
    "quarantine_file",
    "save_result",
    "load_result",
    "save_model",
    "load_model",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_path",
    "list_checkpoints",
    "latest_checkpoint",
    "resumable_checkpoints",
    "prune_checkpoints",
    "save_sweep_entry",
    "load_sweep_entry",
    "read_sweep_entry",
    "CHECKPOINT_VERSION",
    "QUARANTINE_SUFFIX",
]

#: Version tag baked into every simulation checkpoint.  Bump whenever
#: the checkpoint payload layout changes; loading a mismatched version
#: raises instead of silently resuming from incompatible state.
#: v2: the payload gained an ``async_state`` key (the asynchronous
#: engine's virtual clock, event heap and aggregation buffer).
#: v3: the envelope stores the payload as pre-pickled *bytes* plus a
#: sha256 digest of exactly those bytes, so torn or bit-flipped
#: checkpoints are detected (and quarantined) instead of resumed from.
#: v4: the fault and async staleness buffers hold ``UpdateBatch`` parts
#: (one buffer type for both), and async arrival events carry parts.
#: v5: the payload is ``{component: component.state()}`` — arrays and
#: containers of them, no pickled adversary or regularizer objects —
#: and its config digest ignores every throughput knob.
#: v6: no ``engine`` field (there is one round path) and no server
#: ``materialized_rounds`` counter.
#: v7: the client store's defense state is one ``CohortMiner`` block
#: (``state["store"]["miner"]``), not a dict of per-user regularizers.
#: v8: the NCF tower is row-stable, which moves NCF runs in the last
#: ulp; a v7 NCF checkpoint would resume onto mixed arithmetic.
#: v9: the attacker's state is the cohort's alone (``state["cohort"]``
#: carries the members' warm state); no ``clients`` component of
#: per-client participation counters and miners.
#: v10: one ``transit`` component (the upload transit's staleness
#: buffer and fault counters) replaces ``faults``, and the ``async``
#: component no longer carries a buffer of its own.
CHECKPOINT_VERSION = "ckpt-v10"

#: Suffix appended (atomically, via ``os.replace``) to files that fail
#: their integrity check.  A quarantined file is out of every loader's
#: path — the cell re-executes, the resume falls back one checkpoint —
#: but the corrupt bytes survive for inspection.
QUARANTINE_SUFFIX = ".quarantined"


class IntegrityError(ValueError):
    """A persisted payload failed its digest or is torn.

    Distinct from the plain ``ValueError`` raised for *foreign* files
    (wrong structure, incompatible version): an ``IntegrityError``
    means the file is ours but its bytes are no longer the bytes that
    were written.  ``quarantined_to`` carries the path the specimen
    was moved to, or ``None`` when quarantining was disabled or lost a
    race with another process.
    """

    def __init__(self, message: str, *, quarantined_to: str | None = None):
        super().__init__(message)
        self.quarantined_to = quarantined_to


def quarantine_file(path: str) -> str | None:
    """Atomically move a corrupt file aside; return its new path.

    The move is a single ``os.replace`` to ``<path>.quarantined`` —
    crash-safe, and idempotent under concurrency: when two workers
    detect the same corrupt entry, one wins the rename and the other
    gets ``None`` (the file is already gone from the hot path, which
    is all either of them needs).
    """
    target = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


# ----------------------------------------------------------------------
# Digested JSON: the shared integrity format for every JSON artifact
# ----------------------------------------------------------------------

def json_digest(record: Mapping[str, Any]) -> str:
    """sha256 of a JSON object's canonical form, minus its own digest.

    The digest covers the *semantic* content — the canonical compact
    ``sort_keys`` serialisation of every field except ``sha256``
    itself — so whitespace or key order on disk never matter, while
    any change to any value does.  Finite floats serialise via
    ``repr`` and round-trip bit-exactly, so recomputing the digest
    from a parsed file reproduces the writer's digest.
    """
    body = {key: value for key, value in record.items() if key != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verify_json_digest(record: Mapping[str, Any]) -> bool:
    """True when ``record["sha256"]`` matches its recomputed digest."""
    return record.get("sha256") == json_digest(record)


def save_json_digested(
    path: str, record: dict[str, Any], *, indent: int | None = None
) -> None:
    """Write a JSON object with its sha256 digest, atomically.

    The digest field and the data land in one ``os.replace``, so no
    observer ever sees data without its digest (or a torn mix of old
    and new).  ``record`` must not already carry a ``sha256`` key.
    """
    payload = dict(record)
    payload["sha256"] = json_digest(payload)

    def write(tmp_path: str) -> None:
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=indent is not None)
            if indent is not None:
                handle.write("\n")

    _replace_into(path, write)

#: Versioned checkpoint filenames: ``checkpoint-r<next_round>.pkl``.
_CHECKPOINT_PREFIX = "checkpoint-r"


def _replace_into(path: str, write) -> None:
    """Run ``write(tmp_path)`` then atomically rename onto ``path``.

    The temp file lives in the destination directory (same filesystem,
    so the final ``os.replace`` is atomic) and is pid-suffixed so
    concurrent writers never collide on it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp_path)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def save_result(result: SimulationResult, path: str) -> None:
    """Serialise a simulation result (without item history) to JSON.

    The payload carries its own sha256 digest (see
    :func:`save_json_digested`) so :func:`load_result` can prove the
    file still holds the bytes that were written.
    """
    payload = {
        "exposure": result.exposure,
        "hit_ratio": result.hit_ratio,
        "targets": result.targets.tolist(),
        "rounds_run": result.rounds_run,
        "seconds_per_round": result.seconds_per_round,
        "history": [
            {
                "round_idx": rec.round_idx,
                "exposure": rec.exposure,
                "hit_ratio": rec.hit_ratio,
            }
            for rec in result.history
        ],
        "fault_stats": result.fault_stats.to_dict(),
        "async_stats": result.async_stats.to_dict(),
    }
    save_json_digested(path, payload, indent=2)


def load_result(path: str, *, quarantine: bool = True) -> SimulationResult:
    """Load a simulation result saved by :func:`save_result`.

    Verify-on-read: a torn file or a digest mismatch raises
    :class:`IntegrityError` (after quarantining the specimen unless
    ``quarantine`` is false) — corrupt metrics must never load as if
    they were measurements.  A file without a digest is not trusted
    either.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError):
        moved = quarantine_file(path) if quarantine else None
        raise IntegrityError(
            f"{path} is torn or undecodable", quarantined_to=moved
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a simulation result")
    if not verify_json_digest(payload):
        moved = quarantine_file(path) if quarantine else None
        raise IntegrityError(
            f"{path} carries no valid sha256 digest (digestless results "
            f"predate save_result's integrity format; re-run to regenerate)",
            quarantined_to=moved,
        )
    return SimulationResult(
        exposure=payload["exposure"],
        hit_ratio=payload["hit_ratio"],
        targets=np.asarray(payload["targets"], dtype=np.int64),
        rounds_run=payload["rounds_run"],
        seconds_per_round=payload.get("seconds_per_round", 0.0),
        history=[
            EvalRecord(rec["round_idx"], rec["exposure"], rec["hit_ratio"])
            for rec in payload["history"]
        ],
        fault_stats=FaultStats.from_dict(payload.get("fault_stats", {})),
        async_stats=AsyncStats.from_dict(payload.get("async_stats", {})),
    )


def save_checkpoint(path: str, payload: dict[str, Any]) -> None:
    """Write one simulation checkpoint atomically (pickle, versioned).

    ``payload`` is the opaque state dict assembled by
    :meth:`FederatedSimulation.checkpoint_payload`; this layer adds
    the version envelope, a sha256 digest of the exact payload bytes,
    and the crash-safe write.  A run killed mid-checkpoint resumes
    from the previous complete checkpoint; a checkpoint whose bytes
    rot after the write fails its digest on load instead of silently
    resuming a divergent run.
    """
    payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "version": CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(payload_bytes).hexdigest(),
        "payload": payload_bytes,
    }

    def write(tmp_path: str) -> None:
        with open(tmp_path, "wb") as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)

    _replace_into(path, write)


def load_checkpoint(path: str, *, quarantine: bool = True) -> dict[str, Any]:
    """Load a checkpoint saved by :func:`save_checkpoint`.

    Verify-on-read: torn pickles and digest mismatches raise
    :class:`IntegrityError` after moving the specimen aside (unless
    ``quarantine`` is false), so the resume path can fall back to the
    previous checkpoint (see
    :meth:`~repro.federated.simulation.FederatedSimulation.run`)
    instead of crashing or resuming from flipped bits.  Foreign files
    and incompatible versions raise a plain ``ValueError`` and are
    left untouched — an unreadable-by-design file is not corruption.
    """
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception:  # noqa: BLE001 — a torn/bit-flipped pickle can
        # raise nearly anything (EOFError, UnpicklingError, Attribute-
        # Error from a corrupted global reference, ...).
        moved = quarantine_file(path) if quarantine else None
        raise IntegrityError(
            f"{path} is a torn or undecodable checkpoint",
            quarantined_to=moved,
        ) from None
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise ValueError(f"{path} is not a simulation checkpoint")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} does not match "
            f"{CHECKPOINT_VERSION!r}; re-run from scratch"
        )
    payload_bytes = envelope["payload"]
    digest = envelope.get("sha256")
    if not isinstance(payload_bytes, bytes) or (
        digest != hashlib.sha256(payload_bytes).hexdigest()
    ):
        moved = quarantine_file(path) if quarantine else None
        raise IntegrityError(
            f"{path} failed its sha256 digest check",
            quarantined_to=moved,
        )
    return pickle.loads(payload_bytes)


def checkpoint_path(directory: str, next_round: int) -> str:
    """The versioned checkpoint filename for a round boundary."""
    return os.path.join(directory, f"{_CHECKPOINT_PREFIX}{next_round:06d}.pkl")


def list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """All versioned checkpoints in ``directory``, oldest first.

    Returns ``(next_round, path)`` pairs sorted by round.  Filenames
    that merely look similar (temp files, foreign pickles) are
    ignored rather than misparsed.
    """
    found: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return found
    for name in names:
        if not (name.startswith(_CHECKPOINT_PREFIX) and name.endswith(".pkl")):
            continue
        stem = name[len(_CHECKPOINT_PREFIX) : -len(".pkl")]
        if stem.isdigit():
            found.append((int(stem), os.path.join(directory, name)))
    found.sort()
    return found


def latest_checkpoint(directory: str) -> str | None:
    """Newest versioned checkpoint in ``directory``, or ``None``."""
    versioned = list_checkpoints(directory)
    return versioned[-1][1] if versioned else None


def resumable_checkpoints(directory: str) -> list[str]:
    """Every resume candidate in ``directory``, newest first.

    The resume path walks this list so a quarantined (corrupt) newest
    checkpoint degrades to the previous survivor instead of aborting
    the run.
    """
    return [path for _, path in reversed(list_checkpoints(directory))]


def prune_checkpoints(directory: str, keep: int) -> list[str]:
    """Delete all but the newest ``keep`` versioned checkpoints.

    Each removal is a single atomic ``os.unlink`` of an older file, so
    the newest checkpoint is never at risk: a crash mid-prune leaves
    extra old files (harmless — resume picks the newest), never fewer
    than ``keep``.  Returns the removed paths.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    removed = []
    for _, path in list_checkpoints(directory)[:-keep]:
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue
        removed.append(path)
    return removed


def save_sweep_entry(path: str, *, key: str, kind: str, values: Any) -> None:
    """Write one sweep-cache entry atomically (write-temp + rename).

    ``values`` must be JSON-serialisable; finite floats round-trip
    bit-exactly through JSON, which is what lets cached table cells be
    byte-identical to freshly computed ones.  The atomic rename means a
    killed sweep never leaves a half-written entry behind — interrupted
    runs resume from whole entries only.  The entry carries a sha256
    digest of its own payload, so bit rot *after* the write is caught
    on the next read (see :func:`read_sweep_entry`).
    """
    save_json_digested(path, {"key": key, "kind": kind, "values": values})


def read_sweep_entry(
    path: str, *, quarantine: bool = True
) -> tuple[dict[str, Any] | None, str]:
    """Load and verify one sweep-cache entry; returns ``(entry, status)``.

    ``status`` is one of:

    ``"verified"``
        Digest present and matching; ``entry`` is trustworthy.
    ``"missing"``
        No file; ``entry`` is ``None``.
    ``"foreign"``
        Valid JSON that is not a sweep entry (wrong structure) —
        treated as a miss but never quarantined: this loader does not
        move files it cannot positively identify as its own rot.
    ``"quarantined"``
        Torn/undecodable JSON, or an entry without a matching digest
        (mismatched, or digestless from before the format carried
        one): the file was atomically moved aside (unless ``quarantine`` is false) and
        ``entry`` is ``None``, so the caller re-executes the cell.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, ValueError):
        # ValueError covers both JSONDecodeError and the
        # UnicodeDecodeError a binary-corrupt entry raises.  Our
        # writer is atomic, so an unparseable entry means external
        # corruption — quarantine the specimen.
        if quarantine:
            quarantine_file(path)
        return None, "quarantined"
    if not isinstance(payload, dict) or "key" not in payload or "values" not in payload:
        return None, "foreign"
    if not verify_json_digest(payload):
        if quarantine:
            quarantine_file(path)
        return None, "quarantined"
    return payload, "verified"


def load_sweep_entry(path: str) -> dict[str, Any] | None:
    """Load a sweep-cache entry; ``None`` when missing or unreadable.

    Corrupt or truncated entries are quarantined and treated as cache
    misses (the cell simply recomputes and rewrites them), never as
    errors.  The returned dict is the semantic entry (``key`` /
    ``kind`` / ``values``) without the on-disk digest field.
    """
    entry, _ = read_sweep_entry(path)
    if entry is not None:
        entry = {k: v for k, v in entry.items() if k != "sha256"}
    return entry


def save_model(model: RecommenderModel, path: str) -> None:
    """Checkpoint a global model (item embeddings + interaction params)."""
    arrays = {"item_embeddings": model.item_embeddings}
    for index, param in enumerate(model.interaction_params()):
        arrays[f"param_{index}"] = param
    final_path = path if path.endswith(".npz") else path + ".npz"

    def write(tmp_path: str) -> None:
        # np.savez appends ".npz" unless the name already carries it;
        # the temp name from _replace_into never does, so add it and
        # move the actual output into place under the temp name.
        np.savez(tmp_path + ".npz", **arrays)
        os.replace(tmp_path + ".npz", tmp_path)

    _replace_into(final_path, write)


def load_model(model: RecommenderModel, path: str) -> RecommenderModel:
    """Restore a checkpoint into a structurally matching model in place."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        items = data["item_embeddings"]
        if items.shape != model.item_embeddings.shape:
            raise ValueError(
                f"checkpoint item table {items.shape} does not match model "
                f"{model.item_embeddings.shape}"
            )
        model.item_embeddings[...] = items
        params = model.interaction_params()
        stored = sorted(k for k in data.files if k.startswith("param_"))
        if len(stored) != len(params):
            raise ValueError(
                f"checkpoint has {len(stored)} interaction parameters, "
                f"model expects {len(params)}"
            )
        for key, param in zip(stored, params):
            value = data[key]
            if value.shape != param.shape:
                raise ValueError(f"parameter {key} shape mismatch")
            param[...] = value
    return model


# ----------------------------------------------------------------------
# fsck: offline integrity audit of a cache / checkpoint / results tree
# ----------------------------------------------------------------------

@dataclass
class FsckReport:
    """Counts from one :func:`fsck_paths` walk.

    ``corrupt`` drives the exit code of ``repro fsck``: a tree is
    *clean* iff nothing failed verification.  ``repaired`` counts the
    corrupt files moved aside under ``repair=True`` (a subset of
    ``corrupt``); ``quarantined_found`` counts pre-existing
    ``.quarantined`` specimens from earlier verify-on-read hits.
    """

    scanned: int = 0
    verified: int = 0
    corrupt: int = 0
    repaired: int = 0
    quarantined_found: int = 0
    leases: int = 0
    skipped: int = 0
    corrupt_paths: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.corrupt == 0

    def summary(self) -> str:
        line = (
            f"{self.scanned} files: {self.verified} verified, "
            f"{self.corrupt} corrupt"
        )
        if self.repaired:
            line += f" ({self.repaired} moved to *{QUARANTINE_SUFFIX})"
        if self.quarantined_found:
            line += f", {self.quarantined_found} previously quarantined"
        if self.leases:
            line += f", {self.leases} lease files"
        if self.skipped:
            line += f", {self.skipped} skipped"
        return line


def _iter_files(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        yield root
        return
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            yield os.path.join(directory, name)


def _fsck_json(path: str) -> str:
    """Classify one JSON artifact: verified / corrupt / skipped.

    An artifact this harness recognises as its own but which carries no
    digest is corrupt: nothing here writes digestless files any more.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return "corrupt"
    if not isinstance(payload, dict):
        return "skipped"
    if "sha256" in payload:
        return "verified" if verify_json_digest(payload) else "corrupt"
    known = (
        {"key", "values"} <= set(payload)  # sweep entry
        or {"exposure", "hit_ratio", "rounds_run"} <= set(payload)  # result
        or "bench" in payload  # BENCH_*.json
    )
    return "corrupt" if known else "skipped"


def _fsck_checkpoint(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except Exception:  # noqa: BLE001 — torn pickle
        return "corrupt"
    if not isinstance(envelope, dict) or "payload" not in envelope:
        return "skipped"
    # Any envelope of ours that load_checkpoint would refuse — a torn
    # digest or a version it no longer reads — is corrupt.
    payload_bytes = envelope.get("payload")
    ok = (
        envelope.get("version") == CHECKPOINT_VERSION
        and isinstance(payload_bytes, bytes)
        and envelope.get("sha256") == hashlib.sha256(payload_bytes).hexdigest()
    )
    return "verified" if ok else "corrupt"


def fsck_paths(root: str, *, repair: bool = False) -> FsckReport:
    """Walk a tree and verify every artifact this module knows how to.

    Sweep-cache entries, result JSONs and ``BENCH_*.json`` files are
    verified against their embedded sha256; checkpoints against the
    digest of their payload bytes.  Recognised files without a valid
    digest (including checkpoint versions no longer read) count as
    *corrupt*; files this harness never wrote (or cannot verify, like
    ``.npz`` model archives) are *skipped*, never flagged.  With ``repair=True`` every corrupt file is atomically
    quarantined (``*.quarantined``) so subsequent sweeps and resumes
    re-execute instead of tripping on it; fsck itself never mutates
    anything else.
    """
    if not os.path.exists(root):
        raise FileNotFoundError(root)
    report = FsckReport()
    for path in _iter_files(root):
        name = os.path.basename(path)
        report.scanned += 1
        if name.endswith(QUARANTINE_SUFFIX):
            report.quarantined_found += 1
            continue
        if name.endswith(".lease"):
            report.leases += 1
            continue
        if name.endswith(".tmp"):
            report.skipped += 1
            continue
        if name.endswith(".json"):
            status = _fsck_json(path)
        elif name.endswith(".pkl") and name.startswith("checkpoint"):
            status = _fsck_checkpoint(path)
        else:
            status = "skipped"
        if status == "corrupt":
            report.corrupt += 1
            report.corrupt_paths.append(path)
            if repair and quarantine_file(path) is not None:
                report.repaired += 1
        elif status == "verified":
            report.verified += 1
        else:
            report.skipped += 1
    return report
