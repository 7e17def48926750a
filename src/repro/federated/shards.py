"""The benign client state store: contiguous user shards in segments.

In the paper's FRS every benign client keeps a private user embedding
and its own interaction list (Section III-A).
:class:`ShardedStateStore` holds that state for the whole population as
struct-of-arrays, split into ``num_shards`` contiguous user-id ranges;
each shard owns four arrays (*segments*):

* ``emb``     — the shard's ``(n, dim)`` embedding rows, drawn
  bit-identically to the per-user ``spawn(seed, "client-init", u)``
  reference via :func:`~repro.rng.spawn_normal_rows`;
* ``indptr``  — the shard's *local* CSR offsets, ``(n + 1,)`` int64
  (entry 0 is always 0: global offsets minus ``indptr[lo]``);
* ``indices`` — the shard's positive-item ids, ``(nnz,)`` int64;
* ``lr``      — optionally, the shard's per-client learning rates for
  the inconsistent-rate scenario, ``(n,)`` float64, drawn once at build
  bit-identically to the scalar ``spawn(seed, "client-lr", u)`` draws.

One surface, three segment allocators:

* ``"heap"`` — process-private NumPy arrays.  One heap shard is the
  default in-process store (``ShardingConfig(num_shards=0)``); row
  reads are zero-copy views of one matrix.
* ``"shm"``  — named POSIX shared memory
  (``multiprocessing.shared_memory``).  A small JSON
  :class:`ShardManifest` (segment names, dtypes, shapes, user-id
  ranges, creator pid, config digest) is the only thing that crosses
  process boundaries: a worker attaches the segments it needs zero-copy
  and sees the *live* state, so N workers cost ~one dataset of RSS.
* ``"mmap"`` — anonymous ``MAP_SHARED`` mappings, shared only with
  fork-inherited children.

The client-side defense's miner block (one
:class:`~repro.attacks.mining.CohortMiner` over the user ids) stays in
the creating process: the multi-process executor feeds it in the parent
and ships each task only its participants' mined sets (see
:class:`~repro.federated.batch_engine.ProcessRoundExecutor`).

Lifecycle rules for named segments:

* segments are *refcounted per process* — attaching the same segment
  twice maps it once; the last detach closes the mapping;
* the **creator** unlinks its segments on :meth:`close`, at garbage
  collection and at interpreter exit (``weakref.finalize`` covers both);
  attachers only ever close, never unlink;
* segment names embed the creator pid and a random run token
  (``repro_shm_<pid>_<token>_...``), so a segment whose creator is dead
  is detectably *stale*: :meth:`ShardedStateStore.attach` refuses it,
  and ``repro fsck`` lists (and with ``--repair`` unlinks) such
  orphans while never touching foreign /dev/shm entries.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import mmap
import os
import uuid
import weakref

import numpy as np

from repro.attacks.mining import CohortMiner
from repro.config import DefenseConfig
from repro.datasets.base import pack_csr
from repro.rng import spawn_first_uniform, spawn_normal_rows
from repro.stateful import Stateful

__all__ = [
    "ShardManifest",
    "ShardedStateStore",
    "SharedDatasetExport",
    "CSRRaggedList",
    "EmbeddingMatrixView",
    "shard_bounds",
    "segment_prefix",
    "list_repro_segments",
    "orphaned_segments",
    "unlink_segment",
    "shared_memory_available",
]

MANIFEST_VERSION = "shards-v1"
DATASET_MANIFEST_VERSION = "dsexport-v1"

#: Every segment this library creates starts with this prefix; fsck
#: only ever looks at (and only ever unlinks) names under it.
SEGMENT_PREFIX = "repro_shm_"
SHM_DIR = "/dev/shm"


def segment_prefix(pid: int | None = None, token: str | None = None) -> str:
    """Name prefix for this process (or the given pid/token)."""
    parts = [SEGMENT_PREFIX[:-1], str(os.getpid() if pid is None else pid)]
    if token is not None:
        parts.append(token)
    return "_".join(parts) + "_"


def shared_memory_available() -> bool:
    """Whether named POSIX shared memory is usable on this host."""
    return os.path.isdir(SHM_DIR)


# ----------------------------------------------------------------------
# Segment layer: refcounted named-shm, anonymous-mmap and heap buffers
# ----------------------------------------------------------------------

class _Mapping:
    """One mapped segment plus its per-process refcount."""

    __slots__ = ("buf", "refs", "shm")

    def __init__(self, buf, shm):
        self.buf = buf
        self.refs = 1
        self.shm = shm


#: name -> _Mapping for every *named* segment mapped in this process.
_MAPPINGS: dict[str, _Mapping] = {}

#: SharedMemory objects whose close() failed because caller-held views
#: still point into the buffer (e.g. a zero-copy dataset outliving its
#: export).  Kept alive so the garbage collector never runs their
#: ``__del__`` — which would retry the close and surface the same
#: BufferError as an unraisable warning; the OS reclaims the mapping
#: at process exit.
_ZOMBIE_MAPPINGS: list[object] = []


def _shm_open(name: str, size: int, create: bool):
    """Create or attach one named segment, refcounted per process.

    Attaching goes through :mod:`multiprocessing.shared_memory`; the
    attach side immediately unregisters from the resource tracker —
    only the *creator* may unlink, and the tracker would otherwise
    unlink (and warn about) segments it merely attached on 3.10/3.11.
    """
    from multiprocessing import resource_tracker, shared_memory

    mapping = _MAPPINGS.get(name)
    if mapping is not None:
        if create:
            raise FileExistsError(f"segment {name!r} already mapped here")
        mapping.refs += 1
        return mapping.buf
    shm = shared_memory.SharedMemory(
        name=name, create=create, size=max(1, size) if create else 0
    )
    if not create:
        try:  # pragma: no cover - tracker layout is an implementation detail
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        if shm.size < size:
            shm.close()
            raise ValueError(
                f"segment {name!r} holds {shm.size} bytes, "
                f"manifest expects {size}"
            )
    _MAPPINGS[name] = _Mapping(shm.buf, shm=shm)
    return shm.buf


def _shm_release(name: str) -> None:
    """Drop one reference; close the mapping when none remain."""
    mapping = _MAPPINGS.get(name)
    if mapping is None:
        return
    mapping.refs -= 1
    if mapping.refs <= 0:
        del _MAPPINGS[name]
        try:
            # Views into the buffer may still be alive in caller hands;
            # memoryview release errors just mean "in use", and the
            # mapping then lives until the process exits.
            mapping.shm.close()
        except BufferError:
            _ZOMBIE_MAPPINGS.append(mapping.shm)


def unlink_segment(name: str) -> bool:
    """Unlink one named segment; ``True`` if it existed."""
    if not name.startswith(SEGMENT_PREFIX):
        raise ValueError(f"refusing to unlink foreign segment {name!r}")
    try:
        os.unlink(os.path.join(SHM_DIR, name))
        removed = True
    except (FileNotFoundError, OSError):
        removed = False
    # The creating process registered the segment with the resource
    # tracker at SharedMemory() time; deregister so the tracker does
    # not warn about (and re-attempt) already-unlinked segments at
    # interpreter shutdown.
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass
    return removed


class _SegmentSet:
    """All segments owned or attached by one store, as ndarrays.

    ``backend`` picks the allocator: ``"shm"`` (named, attachable),
    ``"mmap"`` (anonymous, fork-inherited) or ``"heap"`` (private
    ``np.zeros``; nothing to release).
    """

    def __init__(self, backend: str):
        if backend not in ("shm", "mmap", "heap"):
            raise ValueError(f"unknown segment backend {backend!r}")
        if backend == "shm" and not shared_memory_available():
            raise RuntimeError(
                f"backend 'shm' requested but {SHM_DIR} is unavailable; "
                f"use shared_memory=False (anonymous mmap) instead"
            )
        self.backend = backend
        self.names: list[str] = []
        self._anon: list[mmap.mmap] = []

    def new(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Allocate one zero-filled segment owned by this set."""
        if self.backend == "heap":
            return np.zeros(shape, dtype=dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if self.backend == "shm":
            buf = _shm_open(name, nbytes, create=True)
            self.names.append(name)
        else:
            mm = mmap.mmap(-1, max(1, nbytes))
            self._anon.append(mm)
            buf = mm
        array = np.frombuffer(buf, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)))
        return array.reshape(shape)

    def attach(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Map an existing named segment (shm backend only)."""
        if self.backend != "shm":
            raise RuntimeError(
                f"{self.backend!r} segments cannot be attached by name"
            )
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        buf = _shm_open(name, nbytes, create=False)
        self.names.append(name)
        array = np.frombuffer(buf, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)))
        return array.reshape(shape)

    def release(self, *, unlink: bool) -> None:
        for name in self.names:
            _shm_release(name)
            if unlink:
                unlink_segment(name)
        self.names = []
        for mm in self._anon:
            try:
                mm.close()
            except BufferError:  # pragma: no cover - caller still holds views
                pass
        self._anon = []


def _cleanup_segments(segments: _SegmentSet, unlink: bool, owner_pid: int) -> None:
    """Finalizer body shared by stores and dataset exports.

    Fork-inherited copies of a creator object carry its finalizer too;
    the pid guard makes sure only the *creating process* ever unlinks —
    a worker dropping its inherited reference must not reap segments
    the parent still serves.
    """
    segments.release(unlink=unlink and os.getpid() == owner_pid)


# ----------------------------------------------------------------------
# Shard geometry
# ----------------------------------------------------------------------

def shard_bounds(num_users: int, num_shards: int) -> np.ndarray:
    """Contiguous, balanced shard boundaries: ``bounds[s] : bounds[s+1]``.

    Every user id in ``[0, num_users)`` falls in exactly one shard and
    shard sizes differ by at most one (the first ``num_users mod
    num_shards`` shards get the extra user) — both properties are
    pinned by hypothesis tests.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_users < 0:
        raise ValueError("num_users must be >= 0")
    num_shards = min(num_shards, max(1, num_users))
    base, extra = divmod(num_users, num_shards)
    sizes = np.full(num_shards, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def _shard_of(bounds: np.ndarray, user_ids: np.ndarray) -> np.ndarray:
    """Shard index of every user id (``bounds`` from :func:`shard_bounds`)."""
    ids = np.asarray(user_ids, dtype=np.int64)
    return np.searchsorted(bounds, ids, side="right") - 1


def _segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[j], starts[j] + counts[j])``."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts
    )


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ShardManifest:
    """Everything a worker needs to attach a store's segments."""

    token: str
    pid: int
    backend: str  # "shm" | "mmap" | "heap"
    num_users: int
    num_items: int
    embedding_dim: int
    seed: int
    #: :func:`~repro.config.identity_digest` of the run's config.
    config_digest: str
    #: ``(lo, hi, nnz)`` per shard, in shard order.
    shards: tuple[tuple[int, int, int], ...]
    #: Field -> segment name per shard (empty for the unnamed backends).
    segments: tuple[dict[str, str], ...]
    lr_range: tuple[float, float] | None = None
    version: str = MANIFEST_VERSION

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def bounds(self) -> np.ndarray:
        return np.asarray(
            [lo for lo, _, _ in self.shards] + [self.num_users],
            dtype=np.int64,
        )

    def to_json(self) -> str:
        record = dataclasses.asdict(self)
        record["shards"] = [list(entry) for entry in self.shards]
        record["segments"] = [dict(entry) for entry in self.segments]
        if self.lr_range is not None:
            record["lr_range"] = [float(v) for v in self.lr_range]
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        record = json.loads(text)
        version = record.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported shard manifest version {version!r} "
                f"(expected {MANIFEST_VERSION!r})"
            )
        lr_range = record.get("lr_range")
        return cls(
            token=record["token"],
            pid=int(record["pid"]),
            backend=record["backend"],
            num_users=int(record["num_users"]),
            num_items=int(record["num_items"]),
            embedding_dim=int(record["embedding_dim"]),
            seed=int(record["seed"]),
            config_digest=record.get("config_digest", ""),
            shards=tuple(
                (int(lo), int(hi), int(nnz))
                for lo, hi, nnz in record["shards"]
            ),
            segments=tuple(
                {str(k): str(v) for k, v in entry.items()}
                for entry in record["segments"]
            ),
            lr_range=None if lr_range is None else (
                float(lr_range[0]), float(lr_range[1])
            ),
        )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class _Shard:
    """One contiguous user range's mapped arrays."""

    __slots__ = ("lo", "hi", "emb", "indptr", "indices", "lr")

    def __init__(self, lo, hi, emb, indptr, indices, lr=None):
        self.lo = lo
        self.hi = hi
        self.emb = emb
        self.indptr = indptr
        self.indices = indices
        self.lr = lr


# The ledger tracer (benchmarks/ledger/tracer.py, inside the benchmark
# fence) hooks this class by name, here and through its
# ``repro.federated.state.ClientStateStore`` alias.
class ShardedStateStore(Stateful):
    """Struct-of-arrays state of the whole benign client population.

    The surface the batch engine, streaming evaluation and checkpoints
    consume — gather/scatter/row access, CSR positives, per-client
    learning rates, the defense's miner block — over per-shard
    segments.  Row ``u`` is the same under every shard count and
    allocator (asserted by the parity suite); one heap shard is the
    in-process default.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        segments: _SegmentSet,
        shards: dict[int, _Shard],
        *,
        defense: DefenseConfig | None = None,
        created: bool,
    ):
        self.manifest = manifest
        self._segments = segments
        self._shards = shards
        self._bounds = manifest.bounds()
        self._starts = self._bounds[:-1].tolist()
        self._created = created
        self._closed = False
        #: The client-side defense every benign client trains with
        #: (``None``: undefended), and the one miner block all of
        #: their popular sets come from.
        self.defense = defense
        self.miner = (
            None
            if defense is None
            else CohortMiner(
                manifest.num_items,
                defense.mining_rounds,
                defense.num_popular,
                manifest.num_users,
            )
        )
        # Covers explicit close, garbage collection and interpreter
        # exit: the creator unlinks, attachers merely unmap.
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, segments, created, os.getpid()
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        train_pos,
        num_items: int,
        embedding_dim: int,
        *,
        seed: int = 0,
        init_scale: float = 0.1,
        defense: DefenseConfig | None = None,
        num_shards: int = 1,
        backend: str = "heap",
        lr_range: tuple[float, float] | None = None,
        config_digest: str = "",
    ) -> "ShardedStateStore":
        """Build from ragged positive-item lists (or a CSR-backed one).

        Each shard draws its embedding rows through the per-user
        ``spawn_normal_rows`` stream restricted to its own id range,
        and — given ``lr_range`` — its clients' learning rates, so the
        store is bit-identical to the object-per-user reference at any
        shard count.
        """
        if lr_range is not None and not 0 < lr_range[0] <= lr_range[1]:
            raise ValueError("client_lr_range must satisfy 0 < low <= high")
        indptr, indices = pack_csr(train_pos)
        num_users = len(indptr) - 1
        bounds = shard_bounds(num_users, num_shards)
        token = uuid.uuid4().hex[:12]
        pid = os.getpid()
        segments = _SegmentSet(backend)
        shard_meta: list[tuple[int, int, int]] = []
        shard_names: list[dict[str, str]] = []
        shards: dict[int, _Shard] = {}
        try:
            for s in range(len(bounds) - 1):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                users = np.arange(lo, hi)
                names = {}

                def _segment(field, values):
                    name = ""
                    if backend == "shm":
                        name = names[field] = (
                            f"{segment_prefix(pid, token)}{field}_{s:04d}"
                        )
                    segment = segments.new(name, values.shape, values.dtype)
                    segment[...] = values
                    return segment

                emb = _segment(
                    "emb",
                    spawn_normal_rows(
                        seed, ("client-init",), users, embedding_dim,
                        scale=init_scale,
                    ),
                )
                local_indptr = _segment("indptr", indptr[lo : hi + 1] - indptr[lo])
                local_indices = _segment("indices", indices[indptr[lo] : indptr[hi]])
                lr = None
                if lr_range is not None:
                    low, high = lr_range
                    lr = _segment(
                        "lr",
                        np.exp(
                            spawn_first_uniform(
                                seed, ("client-lr",), users,
                                float(np.log(low)), float(np.log(high)),
                            )
                        ),
                    )
                shard_meta.append((lo, hi, len(local_indices)))
                shard_names.append(names)
                shards[s] = _Shard(lo, hi, emb, local_indptr, local_indices, lr)
        except BaseException:
            segments.release(unlink=True)
            raise
        manifest = ShardManifest(
            token=token,
            pid=pid,
            backend=backend,
            num_users=num_users,
            num_items=num_items,
            embedding_dim=embedding_dim,
            seed=seed,
            config_digest=config_digest,
            shards=tuple(shard_meta),
            segments=tuple(shard_names),
            lr_range=None if lr_range is None else (
                float(lr_range[0]), float(lr_range[1])
            ),
        )
        return cls(
            manifest,
            segments,
            shards,
            defense=defense,
            created=True,
        )

    @classmethod
    def attach(
        cls,
        manifest: ShardManifest | str,
        *,
        shard_ids=None,
        allow_stale: bool = False,
    ) -> "ShardedStateStore":
        """Attach an existing store's segments (shm backend only).

        ``shard_ids`` restricts the attachment to a subset of shards —
        a round worker maps only the ranges it owns.  Attaching
        segments whose creator process is dead raises (they are stale
        orphans fsck should reap), unless ``allow_stale`` is set.
        """
        if isinstance(manifest, str):
            manifest = ShardManifest.from_json(manifest)
        if manifest.backend != "shm":
            raise RuntimeError(
                f"only named shared-memory stores can be attached by "
                f"manifest; {manifest.backend!r} segments stay in their "
                f"creator's process tree"
            )
        if not allow_stale and not _pid_alive(manifest.pid):
            raise RuntimeError(
                f"stale shard segments: creator pid {manifest.pid} is "
                f"dead (run `repro fsck --repair` to reap orphans)"
            )
        wanted = (
            range(manifest.num_shards)
            if shard_ids is None
            else sorted(int(s) for s in shard_ids)
        )
        segments = _SegmentSet("shm")
        shards: dict[int, _Shard] = {}
        dim = manifest.embedding_dim
        try:
            for s in wanted:
                lo, hi, nnz = manifest.shards[s]
                names = manifest.segments[s]
                n = hi - lo
                emb = segments.attach(names["emb"], (n, dim), np.float64)
                indptr = segments.attach(names["indptr"], (n + 1,), np.int64)
                indices = segments.attach(names["indices"], (nnz,), np.int64)
                lr = None
                if "lr" in names:
                    lr = segments.attach(names["lr"], (n,), np.float64)
                shards[s] = _Shard(lo, hi, emb, indptr, indices, lr)
        except BaseException:
            segments.release(unlink=False)
            raise
        return cls(
            manifest,
            segments,
            shards,
            created=False,
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def created(self) -> bool:
        return self._created

    @property
    def backend(self) -> str:
        return self.manifest.backend

    @property
    def attached_shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._shards))

    def close(self) -> None:
        """Detach (and, for the creator, unlink) all segments."""
        if not self._closed:
            self._closed = True
            self._shards = {}
            self._finalizer()

    # -- shape ----------------------------------------------------------

    @property
    def num_users(self) -> int:
        return self.manifest.num_users

    @property
    def num_items(self) -> int:
        return self.manifest.num_items

    @property
    def embedding_dim(self) -> int:
        return self.manifest.embedding_dim

    @property
    def dtype(self) -> np.dtype:
        """The embedding rows' dtype (outputs are allocated in it)."""
        return next(iter(self._shards.values())).emb.dtype

    def _attached(self, s: int) -> _Shard:
        try:
            return self._shards[s]
        except KeyError:
            raise KeyError(
                f"shard {s} is not attached here; "
                f"attached: {self.attached_shard_ids}"
            ) from None

    def _shard_for_user(self, user_id: int) -> _Shard:
        if not 0 <= user_id < self.num_users:
            raise IndexError(f"user id {user_id} out of range")
        return self._attached(bisect.bisect_right(self._starts, user_id) - 1)

    def _groups(self, ids: np.ndarray):
        """``(shard, positions, local ids)`` per shard holding some ``ids``.

        A one-shard store skips the search: its one group has
        ``positions`` ``None``, meaning every id, in order.
        """
        if len(self._starts) == 1:
            return [(self._attached(0), None, ids)]
        owners = _shard_of(self._bounds, ids)
        groups = []
        for s in np.unique(owners).tolist():
            shard = self._attached(s)
            positions = np.flatnonzero(owners == s)
            groups.append((shard, positions, ids[positions] - shard.lo))
        return groups

    def _spans(self, lo: int, hi: int):
        """``(shard, start, stop)`` covering users ``[lo, hi)`` in order."""
        cursor = lo
        while cursor < hi:
            shard = self._shard_for_user(cursor)
            stop = min(hi, shard.hi)
            yield shard, cursor, stop
            cursor = stop

    # -- embedding access API -------------------------------------------

    def gather_rows(self, user_ids: np.ndarray) -> np.ndarray:
        """Copy of the users' embedding rows, in ``user_ids`` order."""
        ids = np.asarray(user_ids, dtype=np.int64)
        out = np.empty((len(ids), self.embedding_dim), dtype=self.dtype)
        for shard, positions, local in self._groups(ids):
            if positions is None:
                return shard.emb[local]
            out[positions] = shard.emb[local]
        return out

    def scatter_rows(self, user_ids: np.ndarray, rows: np.ndarray) -> None:
        """Write one row per user id (ids must be distinct)."""
        ids = np.asarray(user_ids, dtype=np.int64)
        rows = np.asarray(rows)
        for shard, positions, local in self._groups(ids):
            shard.emb[local] = rows if positions is None else rows[positions]

    def row(self, user_id: int) -> np.ndarray:
        """One user's embedding row — a live view into its segment."""
        shard = self._shard_for_user(int(user_id))
        return shard.emb[int(user_id) - shard.lo]

    def set_row(self, user_id: int, value: np.ndarray) -> None:
        shard = self._shard_for_user(int(user_id))
        shard.emb[int(user_id) - shard.lo] = value

    def embedding_block(self, lo: int, hi: int) -> np.ndarray:
        """Users ``[lo, hi)``; zero-copy when one shard covers them.

        Streaming evaluation and checkpoints walk the population
        through this accessor.
        """
        spans = list(self._spans(lo, hi))
        if len(spans) == 1:
            shard, start, stop = spans[0]
            return shard.emb[start - shard.lo : stop - shard.lo]
        out = np.empty((max(hi - lo, 0), self.embedding_dim), dtype=self.dtype)
        for shard, start, stop in spans:
            out[start - lo : stop - lo] = shard.emb[start - shard.lo : stop - shard.lo]
        return out

    def snapshot_embeddings(self) -> np.ndarray:
        """Dense copy of the full embedding matrix (checkpoints)."""
        return np.array(self.embedding_block(0, self.num_users), order="C")

    def load_embeddings(self, matrix: np.ndarray) -> None:
        """Restore every shard from a dense checkpoint copy."""
        if matrix.shape != (self.num_users, self.embedding_dim):
            raise ValueError(
                f"embedding snapshot shape {matrix.shape} does not match "
                f"store ({self.num_users}, {self.embedding_dim})"
            )
        for s in range(self.manifest.num_shards):
            shard = self._attached(s)
            shard.emb[...] = matrix[shard.lo : shard.hi]

    # -- CSR positives --------------------------------------------------

    def positives(self, user_id: int) -> np.ndarray:
        """User's positive items — a zero-copy slice of its segment."""
        shard = self._shard_for_user(int(user_id))
        local = int(user_id) - shard.lo
        return shard.indices[shard.indptr[local] : shard.indptr[local + 1]]

    def positives_list(self, user_ids: np.ndarray) -> list[np.ndarray]:
        """Zero-copy CSR slices for a batch of users, in ``user_ids`` order.

        One offset lookup per shard, not one search per id.
        """
        ids = np.asarray(user_ids, dtype=np.int64)
        out: list[np.ndarray] = [None] * len(ids)  # type: ignore[list-item]
        for shard, positions, local in self._groups(ids):
            indices = shard.indices
            views = [
                indices[a:b]
                for a, b in zip(
                    shard.indptr[local].tolist(), shard.indptr[local + 1].tolist()
                )
            ]
            if positions is None:
                return views
            for position, view in zip(positions.tolist(), views):
                out[position] = view
        return out

    def positives_csr(self, user_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, flat)``: the users' positives as one CSR pair.

        ``flat`` concatenates the users' positive items in ``user_ids``
        order (the concatenated :meth:`positives_list`), copied by one
        vectorised gather per shard — the form the cohort samplers
        take.
        """
        ids = np.asarray(user_ids, dtype=np.int64)
        lengths = np.empty(len(ids), dtype=np.int64)
        parts = []
        for shard, positions, local in self._groups(ids):
            starts = shard.indptr[local]
            counts = shard.indptr[local + 1] - starts
            if positions is None:
                return counts, shard.indices[_segment_ranges(starts, counts)]
            lengths[positions] = counts
            parts.append((shard, positions, starts, counts))
        flat = np.empty(int(lengths.sum()), dtype=np.int64)
        out_starts = np.cumsum(lengths) - lengths
        for shard, positions, starts, counts in parts:
            flat[_segment_ranges(out_starts[positions], counts)] = shard.indices[
                _segment_ranges(starts, counts)
            ]
        return lengths, flat

    def train_mask_block(self, lo: int, hi: int) -> np.ndarray:
        """Boolean ``(hi - lo, num_items)`` training-interaction mask.

        Equals ``dataset.train_mask()[lo:hi]`` without ever building
        the dense ``(num_users, num_items)`` matrix — the piece that
        lets evaluation stream over user blocks in bounded memory.
        """
        block = np.zeros((hi - lo, self.num_items), dtype=bool)
        for shard, start, stop in self._spans(lo, hi):
            indptr = shard.indptr[start - shard.lo : stop - shard.lo + 1]
            rows = np.repeat(np.arange(start - lo, stop - lo), np.diff(indptr))
            block[rows, shard.indices[indptr[0] : indptr[-1]]] = True
        return block

    # -- per-client scalar state ----------------------------------------

    def client_lrs(self, user_ids: np.ndarray) -> np.ndarray:
        """The users' fixed local learning rates, in ``user_ids`` order.

        The inconsistent-learning-rate scenario (supplementary Table X)
        gives client ``u`` the rate ``exp(uniform(log low, log high))``
        from its private ``spawn(seed, "client-lr", u)`` stream; the
        store drew every rate once, at build, from ``lr_range``.
        """
        if self.manifest.lr_range is None:
            raise RuntimeError("store was built without a client_lr_range")
        ids = np.asarray(user_ids, dtype=np.int64)
        out = np.empty(len(ids), dtype=np.float64)
        for shard, positions, local in self._groups(ids):
            if positions is None:
                return shard.lr[local]
            out[positions] = shard.lr[local]
        return out

    # -- run state ------------------------------------------------------

    def state(self) -> dict:
        return {
            "user_embeddings": self.snapshot_embeddings(),
            "miner": None if self.miner is None else self.miner.state(),
        }

    def restore(self, state: dict) -> None:
        self.load_embeddings(state["user_embeddings"])
        if self.miner is not None:
            self.miner.restore(state["miner"])


# ----------------------------------------------------------------------
# Shared-memory dataset export (sweep worker pools)
# ----------------------------------------------------------------------

class CSRRaggedList:
    """Read-only ragged ``train_pos`` facade over CSR arrays.

    ``dataset.train_pos[u]`` stays a per-user int64 array (a zero-copy
    slice of the shared ``indices`` segment), but no per-user Python
    list of a million arrays is ever materialised.  Store builders
    shortcut through :meth:`csr_arrays`.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = indptr
        self._indices = indices

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._indices

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, user_id):
        if isinstance(user_id, slice):
            return [self[i] for i in range(*user_id.indices(len(self)))]
        if user_id < 0:
            user_id += len(self)
        if not 0 <= user_id < len(self):
            raise IndexError("train_pos index out of range")
        return self._indices[self._indptr[user_id] : self._indptr[user_id + 1]]

    def __iter__(self):
        return (self[u] for u in range(len(self)))


class EmbeddingMatrixView:
    """Sliceable user-embedding facade over a client state store.

    Streaming evaluation (``model.score_blocks``) only needs ``len()``
    and contiguous ``[lo:hi]`` slices; this adapter serves both from
    the store's ``embedding_block`` without ever materialising a dense
    ``num_users x dim`` matrix the store does not already hold, so the
    block-wise scores do not depend on where the rows live.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ShardedStateStore):
        self._store = store

    def __len__(self) -> int:
        return self._store.num_users

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), self._store.embedding_dim)

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                raise ValueError("EmbeddingMatrixView supports step-1 slices only")
            return self._store.embedding_block(lo, hi)
        return self._store.row(int(key))


class SharedDatasetExport:
    """One dataset packed into named segments for worker-pool attach.

    Replaces the sweep pool's pickle-once initializer payload: the
    parent exports each dataset once (CSR ``indptr``/``indices`` plus
    ``test_items``), workers attach by manifest and reconstruct an
    :class:`~repro.datasets.base.InteractionDataset` whose per-user
    arrays are zero-copy views into the shared segments — N workers
    cost ~one dataset of RSS, not N.
    """

    def __init__(self, manifest: dict, segments: _SegmentSet, dataset, created: bool):
        self.manifest = manifest
        self._segments = segments
        self.dataset = dataset
        self._created = created
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, segments, created, os.getpid()
        )

    @classmethod
    def create(cls, dataset) -> "SharedDatasetExport":
        """Export one dataset into fresh named segments."""
        indptr, indices = dataset.train_csr()
        token = uuid.uuid4().hex[:12]
        pid = os.getpid()
        prefix = segment_prefix(pid, token)
        segments = _SegmentSet("shm")
        try:
            shared_indptr = segments.new(
                f"{prefix}ds_indptr", indptr.shape, np.int64
            )
            shared_indptr[...] = indptr
            shared_indices = segments.new(
                f"{prefix}ds_indices", (max(len(indices), 0),), np.int64
            )
            shared_indices[...] = indices
            test_items = np.ascontiguousarray(dataset.test_items, dtype=np.int64)
            shared_test = segments.new(
                f"{prefix}ds_test", test_items.shape, np.int64
            )
            shared_test[...] = test_items
        except BaseException:
            segments.release(unlink=True)
            raise
        manifest = {
            "version": DATASET_MANIFEST_VERSION,
            "token": token,
            "pid": pid,
            "name": dataset.name,
            "num_users": int(dataset.num_users),
            "num_items": int(dataset.num_items),
            "nnz": int(len(indices)),
            "segments": {
                "indptr": f"{prefix}ds_indptr",
                "indices": f"{prefix}ds_indices",
                "test_items": f"{prefix}ds_test",
            },
        }
        return cls(manifest, segments, dataset, created=True)

    @classmethod
    def attach(cls, manifest: dict) -> "SharedDatasetExport":
        """Attach an exported dataset; zero-copy reconstruction."""
        from repro.datasets.base import InteractionDataset

        if manifest.get("version") != DATASET_MANIFEST_VERSION:
            raise ValueError(
                f"unsupported dataset export version "
                f"{manifest.get('version')!r}"
            )
        if not _pid_alive(int(manifest["pid"])):
            raise RuntimeError(
                f"stale dataset export: creator pid {manifest['pid']} is dead"
            )
        num_users = int(manifest["num_users"])
        nnz = int(manifest["nnz"])
        names = manifest["segments"]
        segments = _SegmentSet("shm")
        try:
            indptr = segments.attach(names["indptr"], (num_users + 1,), np.int64)
            indices = segments.attach(names["indices"], (nnz,), np.int64)
            test_items = segments.attach(
                names["test_items"], (num_users,), np.int64
            )
        except BaseException:
            segments.release(unlink=False)
            raise
        dataset = InteractionDataset.from_csr(
            name=manifest["name"],
            num_users=num_users,
            num_items=int(manifest["num_items"]),
            indptr=indptr,
            indices=indices,
            test_items=test_items,
        )
        return cls(manifest, segments, dataset, created=False)

    def close(self) -> None:
        self._finalizer()


# ----------------------------------------------------------------------
# Segment hygiene (consumed by `repro fsck`)
# ----------------------------------------------------------------------

def list_repro_segments(shm_dir: str = SHM_DIR) -> list[dict]:
    """Every repro-owned segment visible in ``shm_dir``.

    Foreign names (anything without the ``repro_shm_`` prefix) are
    never reported, let alone unlinked.  Each record carries the
    parsed creator pid and whether that process is still alive.
    """
    records: list[dict] = []
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:
        return records
    for name in names:
        if not name.startswith(SEGMENT_PREFIX):
            continue
        parts = name[len(SEGMENT_PREFIX):].split("_", 1)
        try:
            pid = int(parts[0])
        except (ValueError, IndexError):
            pid = -1
        try:
            size = os.path.getsize(os.path.join(shm_dir, name))
        except OSError:
            size = 0
        records.append(
            {
                "name": name,
                "pid": pid,
                "alive": pid > 0 and _pid_alive(pid),
                "bytes": size,
            }
        )
    return records


def orphaned_segments(shm_dir: str = SHM_DIR) -> list[dict]:
    """Repro segments whose creator process is dead (safe to unlink)."""
    return [rec for rec in list_repro_segments(shm_dir) if not rec["alive"]]
