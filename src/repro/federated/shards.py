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

One surface, two segment allocators:

* ``"heap"`` — process-private NumPy arrays.  One heap shard is the
  default in-process store (``ShardingConfig(num_shards=0)``); row
  reads are zero-copy views of one matrix.
* ``"mmap"`` — anonymous ``MAP_SHARED`` mappings, the allocator of
  every sharded store.  Each process that reads a sharded store is a
  fork of the one that built it (the round executor forks its workers
  after the build), so the children inherit the mappings, see the
  *live* state, and N workers cost ~one dataset of RSS.  The kernel
  frees a mapping when the last process that maps it exits: a crash,
  even a SIGKILL, leaves nothing behind to reap.

The client-side defense's miner block (one
:class:`~repro.attacks.mining.CohortMiner` over the user ids) stays in
the creating process: the multi-process executor feeds it in the parent
and ships each task only its participants' mined sets (see
:class:`~repro.federated.batch_engine.ProcessRoundExecutor`).
"""

from __future__ import annotations

import bisect
import mmap
import os

import numpy as np

from repro.attacks.mining import CohortMiner
from repro.config import DefenseConfig
from repro.datasets.base import pack_csr
from repro.rng import spawn_first_uniform, spawn_normal_rows
from repro.stateful import Stateful

__all__ = [
    "ShardedStateStore",
    "CSRRaggedList",
    "EmbeddingMatrixView",
    "shard_bounds",
    "list_repro_segments",
]

def _segment(shape: tuple[int, ...], dtype, backend: str) -> np.ndarray:
    """A new C-contiguous array of ``shape`` in a segment of ``backend``.

    An ``"mmap"`` segment is an anonymous shared mapping that lives as
    long as some array, in this process or a fork of it, refers to it.
    """
    if backend == "heap":
        return np.empty(shape, dtype)
    size = int(np.prod(shape))
    mapping = mmap.mmap(-1, max(1, size * np.dtype(dtype).itemsize))
    return np.frombuffer(mapping, dtype=dtype, count=size).reshape(shape)


def _segment_copy(values: np.ndarray, backend: str) -> np.ndarray:
    """A copy of ``values`` in a new segment of ``backend``."""
    segment = _segment(values.shape, values.dtype, backend)
    segment[...] = values
    return segment


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
        shards: list[_Shard],
        *,
        num_items: int,
        embedding_dim: int,
        seed: int,
        backend: str,
        lr_range: tuple[float, float] | None = None,
        defense: DefenseConfig | None = None,
    ):
        self._shards: list[_Shard] | None = shards
        #: Shard ``s`` holds users ``bounds[s] : bounds[s + 1]``.
        self.bounds = np.asarray(
            [shard.lo for shard in shards] + [shards[-1].hi], dtype=np.int64
        )
        self._starts = self.bounds[:-1].tolist()
        self.num_users = int(self.bounds[-1])
        self.num_items = num_items
        self.embedding_dim = embedding_dim
        #: The run seed every row and learning rate was drawn from.
        self.seed = seed
        #: The segment allocator: ``"heap"`` or ``"mmap"``.
        self.backend = backend
        self.lr_range = lr_range
        #: The client-side defense every benign client trains with
        #: (``None``: undefended), and the one miner block all of
        #: their popular sets come from.
        self.defense = defense
        self.miner = (
            None
            if defense is None
            else CohortMiner(
                num_items, defense.mining_rounds, defense.num_popular, self.num_users
            )
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
    ) -> "ShardedStateStore":
        """Build from ragged positive-item lists (or a CSR-backed one).

        Each shard draws its embedding rows through the per-user
        ``spawn_normal_rows`` stream restricted to its own id range,
        and — given ``lr_range`` — its clients' learning rates, so the
        store is bit-identical to the object-per-user reference at any
        shard count.
        """
        if backend not in ("heap", "mmap"):
            raise ValueError(f"unknown segment backend {backend!r}")
        if lr_range is not None and not 0 < lr_range[0] <= lr_range[1]:
            raise ValueError("client_lr_range must satisfy 0 < low <= high")
        indptr, indices = pack_csr(train_pos)
        bounds = shard_bounds(len(indptr) - 1, num_shards)
        shards: list[_Shard] = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            users = np.arange(lo, hi)
            emb = spawn_normal_rows(
                seed, ("client-init",), users, embedding_dim, scale=init_scale,
                out=_segment((hi - lo, embedding_dim), np.float64, backend),
            )
            local_indptr = _segment_copy(indptr[lo : hi + 1] - indptr[lo], backend)
            local_indices = _segment_copy(indices[indptr[lo] : indptr[hi]], backend)
            lr = None
            if lr_range is not None:
                low, high = lr_range
                lr = _segment_copy(
                    np.exp(
                        spawn_first_uniform(
                            seed, ("client-lr",), users,
                            float(np.log(low)), float(np.log(high)),
                        )
                    ),
                    backend,
                )
            shards.append(_Shard(lo, hi, emb, local_indptr, local_indices, lr))
        return cls(
            shards,
            num_items=num_items,
            embedding_dim=embedding_dim,
            seed=seed,
            backend=backend,
            lr_range=None if lr_range is None else (
                float(lr_range[0]), float(lr_range[1])
            ),
            defense=defense,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Drop the segments (idempotent); the store serves no more reads.

        A mapping is freed once no array, in this process or a fork of
        it, refers to it any more.
        """
        self._shards = None

    def _live_shards(self) -> list[_Shard]:
        if self._shards is None:
            raise RuntimeError("the client state store is closed")
        return self._shards

    # -- shape ----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The embedding rows' dtype (outputs are allocated in it)."""
        return self._live_shards()[0].emb.dtype

    def _shard_for_user(self, user_id: int) -> _Shard:
        if not 0 <= user_id < self.num_users:
            raise IndexError(f"user id {user_id} out of range")
        return self._live_shards()[bisect.bisect_right(self._starts, user_id) - 1]

    def _groups(self, ids: np.ndarray):
        """``(shard, positions, local ids)`` per shard holding some ``ids``.

        A one-shard store skips the search: its one group has
        ``positions`` ``None``, meaning every id, in order.
        """
        shards = self._live_shards()
        if len(shards) == 1:
            return [(shards[0], None, ids)]
        owners = _shard_of(self.bounds, ids)
        groups = []
        for s in np.unique(owners).tolist():
            shard = shards[s]
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
        for shard in self._live_shards():
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

        Rows ``lo:hi`` of the dense ``(num_users, num_items)`` mask,
        without ever building that matrix — the piece that
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
        if self.lr_range is None:
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
# Read-only facades over CSR arrays and the store
# ----------------------------------------------------------------------

class CSRRaggedList:
    """Read-only ragged ``train_pos`` facade over CSR arrays.

    ``dataset.train_pos[u]`` stays a per-user int64 array (a zero-copy
    slice of the ``indices`` array), but no per-user Python
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


# ----------------------------------------------------------------------
# Named-segment scan
# ----------------------------------------------------------------------

# The package creates no named segment.  This scan stays because the
# ledger runner (benchmarks/ledger/runner.py, inside the benchmark
# fence) imports it on traced runs, and tests use it to show nothing
# leaks into /dev/shm.
SEGMENT_PREFIX = "repro_shm_"
SHM_DIR = "/dev/shm"

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


def list_repro_segments(shm_dir: str = SHM_DIR) -> list[dict]:
    """Every repro-owned segment visible in ``shm_dir``.

    Foreign names (anything without the ``repro_shm_`` prefix) are
    never reported.  Each record carries the parsed creator pid and
    whether that process is still alive.
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
