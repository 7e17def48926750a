"""Vectorised batch-client execution engine for federated rounds.

The reference implementation of one communication round (the
per-client loop in ``tests/reference/``) trains each sampled client in
pure Python: per-client RNG spawn,
negative sampling, forward/backward, upload, then a per-item grouped
aggregation at the server.  At production round sizes the Python
per-client overhead — not the arithmetic — dominates wall-clock time.

:class:`BatchClientEngine` executes the *same* round as three tensor
passes over all sampled participants at once:

1. **Stack.** Every sampled benign client's local batch (its positives
   plus freshly sampled negatives, drawn from the client's own private
   RNG stream) is packed into one ragged row-stack
   (:func:`~repro.datasets.sampling.sample_local_batches`): flat
   ``(total_rows,)`` item-id and label arrays in which client ``k``
   owns a contiguous segment of ``lengths[k]`` rows.  The CSR-style
   layout wastes nothing under long-tail activity, where padding every
   client to the most active one would dwarf the real data.
2. **Step.** One batched embedding gather produces the stacked item
   vectors and a single batched local step runs every client's local
   epoch — :meth:`~repro.models.base.RecommenderModel.batch_local_step`
   for the BCE loss,
   :meth:`~repro.models.base.RecommenderModel.batch_local_step_bpr`
   for BPR (paired positive/negative stacks, with per-client
   duplicate-row merging done here via one offset-keyed ``np.unique``)
   — with per-client reductions taken over each client's exact row
   segment.
3. **Hand-off.** All uploads (the benign gradient rows — already
   row-aligned in participation order — plus whatever the round's
   malicious clients emitted, spliced in at their sampled positions by
   :meth:`UpdateBatch.concat
   <repro.federated.update_batch.UpdateBatch.concat>`) travel as one
   dense :class:`~repro.federated.update_batch.UpdateBatch` to
   :meth:`~repro.federated.server.Server.apply_batch`, which runs the
   whole server side — audit log, defense filters, robust or fused-sum
   aggregation — on the stacked tensors.

Each step has one implementation.  The malicious half of the round
runs through the simulation's
:class:`~repro.attacks.cohort.MaliciousCohort`: all sampled malicious
clients' uploads are computed in one batched pass over the team's
struct-of-arrays state and splice into the ``UpdateBatch`` as
:class:`~repro.attacks.cohort.CohortUpload` views.  Client state
enters and leaves through the simulation's
:class:`~repro.federated.shards.ShardedStateStore`: participant
embeddings are *gathered* by fancy indexing, positives arrive as one
CSR pair, per-client learning rates were drawn once at build, and
the updated embeddings are *scattered* back in one assignment.  The
local step itself is the module-level :func:`_compute_benign_stacks`,
run in-process or — the same code object — by the
:class:`ProcessRoundExecutor`'s workers.

Bit-exactness is a design invariant, not an approximation: every RNG
stream, every row-wise op, and every reduction matches the per-client
reference bit for bit (NumPy scatters and reduces sequentially, so
grouping rows per item and summing matches scattering them in upload
order), and so both produce identical trajectories from the same
seed.  The parity suites in ``tests/test_batch_engine.py`` and
``tests/test_batch_defended.py`` (every registry defense x attack x
model/loss combination) assert exactly that.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.config import DefenseConfig, TrainConfig
from repro.datasets.sampling import sample_local_batches, sample_negatives_batch
from repro.defenses.regularization import regularization_terms, tower_grad_terms
from repro.federated.server import Server
from repro.federated.shards import _segment_copy
from repro.federated.update_batch import UpdateBatch
from repro.models.base import RecommenderModel, segment_starts
from repro.rng import StreamBatch, spawn_batch
from repro.stateful import Stateful
from repro.workers import Failure, Supervisor

__all__ = ["BatchClientEngine", "ProcessRoundExecutor"]


# ----------------------------------------------------------------------
# Stacked local training, as pure functions
#
# Module-level so the multi-process round executor's workers run the
# *same code object* as the in-process engine: bit-identity between the
# two paths is then a property of per-client independence (private RNG
# streams, per-segment reductions, per-client BPR merges) rather than
# of two implementations staying in sync.
# ----------------------------------------------------------------------


def _bce_stacks_fn(
    model: RecommenderModel,
    train_cfg: TrainConfig,
    num_pos: np.ndarray,
    flat_pos: np.ndarray,
    rngs: StreamBatch,
    user_vecs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Stacked BCE local batches and gradients for all clients."""
    item_ids, labels, lengths = sample_local_batches(
        rngs, num_pos, flat_pos, model.num_items, train_cfg.negative_ratio
    )
    item_vecs = model.item_embeddings[item_ids]
    result = model.batch_local_step(user_vecs, item_vecs, labels, lengths)
    return item_ids, lengths, result.item_grads, result.user_grads, result.param_grads


def _bpr_stacks_fn(
    model: RecommenderModel,
    num_pos: np.ndarray,
    flat_pos: np.ndarray,
    rngs: StreamBatch,
    user_vecs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked BPR pairs, trained and merged to per-client uploads.

    Mirrors the per-client reference BPR step for the whole stack: pair each
    positive with one freshly sampled negative (truncating positives
    when negatives are scarce), run the batched pairwise step, then
    merge each client's duplicate item rows exactly as the reference's
    per-client ``np.unique`` + ``np.add.at`` does — realised here as
    *one* ``np.unique`` over client-offset item keys, whose per-client
    blocks are the per-client results.
    """
    num_clients = len(num_pos)
    neg_ids, lengths = sample_negatives_batch(
        rngs, num_pos, flat_pos, model.num_items, num_pos
    )
    # A client short of negatives pairs only its first len(negatives)
    # positives.
    within = np.arange(len(flat_pos)) - np.repeat(segment_starts(num_pos), num_pos)
    pos_ids = flat_pos[within < np.repeat(lengths, num_pos)]
    pos_vecs = model.item_embeddings[pos_ids]
    neg_vecs = model.item_embeddings[neg_ids]
    result = model.batch_local_step_bpr(
        user_vecs, pos_vecs, neg_vecs, lengths
    )
    total = int(lengths.sum())
    pos_grads = result.item_grads[:total]
    neg_grads = result.item_grads[total:]

    # Interleave each client's positive and negative rows into the
    # reference upload order (positives first), then merge duplicate
    # items per client.  Both buffers inherit the gradient dtype so
    # reduced-precision models upload at their own precision.
    starts = segment_starts(lengths)
    within = np.arange(total) - np.repeat(starts, lengths)
    dest_base = np.repeat(2 * starts, lengths)
    all_ids = np.empty(2 * total, dtype=np.int64)
    all_grads = np.empty(
        (2 * total, model.embedding_dim), dtype=result.item_grads.dtype
    )
    pos_dest = dest_base + within
    neg_dest = dest_base + np.repeat(lengths, lengths) + within
    all_ids[pos_dest] = pos_ids
    all_ids[neg_dest] = neg_ids
    all_grads[pos_dest] = pos_grads
    all_grads[neg_dest] = neg_grads

    owners = np.repeat(np.arange(num_clients, dtype=np.int64), 2 * lengths)
    keys = owners * model.num_items + all_ids
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(
        (len(unique_keys), model.embedding_dim), dtype=all_grads.dtype
    )
    np.add.at(merged, inverse, all_grads)
    merged_ids = unique_keys % model.num_items
    merged_lengths = np.bincount(
        unique_keys // model.num_items, minlength=num_clients
    ).astype(np.int64)
    return merged_ids, merged_lengths, merged, result.user_grads


def _all_owners(num_clients: int, param_stacks: list[np.ndarray]) -> np.ndarray:
    """``param_owners`` when every client (or none) owns a stack row."""
    return np.arange(num_clients if param_stacks else 0, dtype=np.int64)


def _upload_batch(upload) -> UpdateBatch:
    """One :class:`~repro.attacks.cohort.CohortUpload` as a one-client
    batch, its arrays copied out of the cohort's round stacks."""
    return UpdateBatch(
        user_ids=np.array([upload.user_id], dtype=np.int64),
        item_ids=upload.item_ids.copy(),
        item_grads=upload.item_grads.copy(),
        lengths=np.array([len(upload.item_ids)], dtype=np.int64),
        param_stacks=[grad[None].copy() for grad in upload.param_grads],
        param_owners=_all_owners(1, upload.param_grads),
        malicious=np.array([upload.malicious], dtype=bool),
    )


def _bpr_param_stacks(
    model: RecommenderModel, num_defended: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Zero parameter stacks for the regularised BPR edge case.

    The BPR upload itself carries no interaction-parameter gradients;
    a client contributes one only when the defense adds its tower
    term — mirrored here by allocating zero rows for the
    ``num_defended`` regularised clients (all of them, or none).
    """
    params = model.interaction_params()
    if not params or not num_defended:
        return [], np.empty(0, dtype=np.int64)
    stacks = [np.zeros((num_defended,) + p.shape, dtype=p.dtype) for p in params]
    return stacks, np.arange(num_defended, dtype=np.int64)


def _add_tower_terms(
    model: RecommenderModel,
    defense: DefenseConfig,
    mined: np.ndarray,
    item_ids: np.ndarray,
    lengths: np.ndarray,
    param_stacks: list[np.ndarray],
) -> None:
    """Add each defended client's DL-FRS tower term to its stack row.

    One forward/backward per ready client; a client whose set is not
    mined yet (every client when ``gamma == 0``) adds its zero block,
    exactly as the per-client hook does.  A model without interaction
    parameters (MF) has no stacks and no term to compute.
    """
    if not param_stacks:
        return
    ready = (mined[:, 0] >= 0) & (defense.gamma != 0.0)
    for stack in param_stacks:
        stack[~ready] += 0.0
    starts = segment_starts(lengths)
    for row in np.flatnonzero(ready):
        ids = item_ids[starts[row] : starts[row] + lengths[row]]
        terms = tower_grad_terms(model, mined[row], ids, defense.gamma)
        for stack, term in zip(param_stacks, terms):
            stack[row] += term


def _compute_benign_stacks(
    model: RecommenderModel,
    train_cfg: TrainConfig,
    seed: int,
    store,
    benign_ids: np.ndarray,
    round_idx: int,
    defense: DefenseConfig | None = None,
    mined: np.ndarray | None = None,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray], np.ndarray
]:
    """The benign local step for a participant subset — the only one.

    Returns ``(new_users, item_ids, lengths, item_grads, param_stacks,
    param_owners)`` with rows in ``benign_ids`` order, *without*
    scattering the updated embeddings (the caller owns all store
    writes — pure reads are what make worker retry after a SIGKILL
    trivially bit-identical).

    Under the client-side defense ``mined`` holds the participants'
    popular sets (their rows of the store's
    :class:`~repro.attacks.mining.CohortMiner`, already fed this
    round's matrix by the caller) and ``defense`` the ``beta`` /
    ``gamma`` to train with.  Every per-client quantity is a pure
    function of ``(seed, user_id, round_idx)``, the frozen round-start
    model and the client's ``mined`` row, so computing a subset equals
    slicing the full-cohort computation: the exact property the
    multi-process executor's parity suite pins.
    """
    user_vecs = store.gather_rows(benign_ids)
    num_pos, flat_pos = store.positives_csr(benign_ids)
    rngs = spawn_batch(seed, ("client-round",), benign_ids, (round_idx,))
    if train_cfg.loss == "bpr":
        item_ids, lengths, item_grads, user_grads = _bpr_stacks_fn(
            model, num_pos, flat_pos, rngs, user_vecs
        )
        param_stacks, param_owners = _bpr_param_stacks(
            model, 0 if mined is None else len(benign_ids)
        )
    else:
        # Any non-BPR loss trains with BCE, exactly like the reference
        # client.
        item_ids, lengths, item_grads, user_grads, param_stacks = (
            _bce_stacks_fn(model, train_cfg, num_pos, flat_pos, rngs, user_vecs)
        )
        param_owners = _all_owners(len(benign_ids), param_stacks)
    if mined is not None:
        # L_def = L_i - beta * Re1 - gamma * Re2 (Eq. 16); ``user_vecs``
        # are the pre-update embeddings the per-client hooks see.
        item_terms, user_terms = regularization_terms(
            mined, user_vecs, item_ids, lengths, model.item_embeddings,
            defense.beta, defense.gamma,
        )
        item_grads += item_terms
        user_grads += user_terms
        _add_tower_terms(model, defense, mined, item_ids, lengths, param_stacks)
    # Local personalised-model update: u <- u - eta * grad_u, for the
    # whole participant stack at once.
    if train_cfg.client_lr_range is None:
        new_users = user_vecs - train_cfg.effective_client_lr * user_grads
    else:
        lrs = store.client_lrs(benign_ids)
        new_users = user_vecs - lrs[:, None] * user_grads
    return new_users, item_ids, lengths, item_grads, param_stacks, param_owners


class BatchClientEngine(Stateful):
    """Executes federated rounds with stacked per-client tensors."""

    STATE = ("kernel_fallback_rounds", "process_rounds")

    def __init__(
        self,
        model: RecommenderModel,
        server: Server,
        state,
        cohort,
        train_cfg: TrainConfig,
        seed: int,
        *,
        kernel_backend=None,
        transit=None,
        executor=None,
    ):
        self.model = model
        self.server = server
        #: The struct-of-arrays client state this engine gathers from
        #: and scatters to.
        self.store = state
        #: The team-level :class:`~repro.attacks.cohort.MaliciousCohort`
        #: executing all sampled malicious clients per round in one
        #: batched pass; ``None`` when the run has no adversary.
        self.cohort = cohort
        self.train_cfg = train_cfg
        self.seed = seed
        # Always zero: the fallbacks these counted are gone.  Kept only
        # because benchmarks/ledger/runner.py reads both on every run.
        self.stacked_rounds = 0
        self.object_malicious_rounds = 0
        #: Resolved kernel backend (:func:`repro.kernels.resolve`) every
        #: round runs under; ``None`` defers to the caller's dispatch
        #: scope / the ``REPRO_KERNELS`` environment default per round.
        self.kernel_backend = kernel_backend
        #: Rounds in which the kernel backend served at least one
        #: dispatched call through its numpy fallback (unsupported
        #: dtype): a native-backend run that quietly degrades must be
        #: visible, and the native bench asserts this stays zero.
        self.kernel_fallback_rounds = 0
        #: Optional :class:`~repro.federated.faults.UploadTransit` each
        #: synchronous round crosses before the server; ``None`` keeps
        #: the ideal-synchronous path bit-identical and overhead-free.
        self.transit = transit
        #: Optional :class:`ProcessRoundExecutor` computing each benign
        #: local step across forked worker processes sharing the
        #: sharded store; ``None`` computes rounds in-process.
        self.executor = executor
        #: Rounds whose benign step ran on the multi-process executor —
        #: the anti-fallback counter the million-user CI smoke asserts
        #: equals the round count (the executor must actually engage).
        self.process_rounds = 0

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def run_round(self, round_idx: int, sampled: np.ndarray) -> None:
        """Execute one communication round for the sampled user ids.

        The whole round runs inside the engine's kernel dispatch scope;
        per-call numpy fallbacks of the active backend are snapshotted
        across the round into ``kernel_fallback_rounds``.
        """
        with kernels.use(self.kernel_backend) as backend:
            fallbacks_before = backend.fallback_calls
            self._run_round(round_idx, sampled)
            if backend.fallback_calls > fallbacks_before:
                self.kernel_fallback_rounds += 1

    def compute_round_batch(
        self, round_idx: int, sampled: np.ndarray
    ) -> UpdateBatch:
        """One round's assembled :class:`UpdateBatch`, *not* applied.

        Runs the full client side of a round — malicious cohort pass,
        batched benign local training (participants' private state
        advances), splice — inside the engine's kernel scope, and
        returns the assembled batch instead of handing it to the
        server.  The asynchronous engine uses this to train a wave at
        dispatch time and decide later when each upload aggregates;
        because the RNG streams are keyed only by ``round_idx``, the
        batch is bit-identical to what :meth:`run_round` would have
        produced for the same round.  The upload transit is the
        caller's to apply.

        Kernel-fallback accounting is left to the caller's scope so a
        wave is never double-counted.
        """
        with kernels.use(self.kernel_backend):
            return self._compute_round(round_idx, sampled)

    def _run_round(self, round_idx: int, sampled: np.ndarray) -> None:
        round_batch = self._compute_round(round_idx, sampled)
        if self.transit is not None:
            # Transit strikes between upload and aggregation: local
            # training above already happened (dropped clients' private
            # state advanced), only the server's view changes.
            round_batch = self.transit.sync_round(round_batch, sampled, round_idx)
        self.server.apply_batch(round_batch)

    def _compute_round(self, round_idx: int, sampled: np.ndarray) -> UpdateBatch:
        sampled = np.asarray(sampled, dtype=np.int64)
        num_benign = self.store.num_users
        is_benign = sampled < num_benign
        mal_positions = np.flatnonzero(~is_benign)

        # Malicious participants run before the benign tensor pass (the
        # global model is frozen within a round, so this is
        # order-equivalent to the interleaved reference loop), as one
        # batched cohort pass yielding CohortUpload views (or None for
        # a client that uploads nothing this round).
        uploads: list = []
        if len(mal_positions):
            uploads = self.cohort.compute_uploads(
                self.model,
                self.train_cfg,
                round_idx,
                sampled[mal_positions] - num_benign,
            )
        benign = self._benign_batch_step(sampled[is_benign], round_idx)

        # Splice each malicious upload in at its sampled position,
        # cutting the benign stack into a handful of contiguous runs:
        # the batch's client order — and therefore every downstream
        # float accumulation — is exactly the reference engine's upload
        # order.  A round without malicious uploads is the benign batch
        # itself (zero copies).
        parts: list[UpdateBatch] = []
        run_begin = 0
        for seen, (pos, upload) in enumerate(zip(mal_positions, uploads)):
            if upload is None:
                continue
            run_end = int(pos) - seen  # benign clients sampled before pos
            if run_end > run_begin:
                parts.append(benign.client_slice(run_begin, run_end))
                run_begin = run_end
            parts.append(_upload_batch(upload))
        if not parts:
            return benign
        if benign.num_clients > run_begin:
            parts.append(benign.client_slice(run_begin, benign.num_clients))
        return UpdateBatch.concat(parts)

    # ------------------------------------------------------------------
    # Benign local training, batched
    # ------------------------------------------------------------------

    def _benign_batch_step(
        self, benign_ids: np.ndarray, round_idx: int
    ) -> UpdateBatch:
        """Run every sampled benign client's local step in one batch.

        Participant state enters as one embedding gather plus zero-copy
        CSR positive slices; the stacks are computed in-process or by
        the executor's workers, and either way this method performs the
        single scatter that commits the round.  Returns the benign
        clients' uploads, already row-aligned in participation order.
        """
        store = self.store
        if not len(benign_ids):
            return UpdateBatch.empty(self.model.embedding_dim)
        mined = None
        if store.miner is not None:
            # Algorithm 1 for every defended participant at once; the
            # rows' mined sets then travel with the round's work.
            store.miner.observe(benign_ids, self.model.item_embeddings, round_idx)
            mined = store.miner.mined[benign_ids]
        if self.executor is None:
            result = _compute_benign_stacks(
                self.model, self.train_cfg, self.seed,
                store, benign_ids, round_idx, store.defense, mined,
            )
        else:
            result = self.executor.compute(benign_ids, round_idx, mined)
            self.process_rounds += 1
        new_users, item_ids, lengths, item_grads, param_stacks, param_owners = result
        store.scatter_rows(benign_ids, new_users)
        return UpdateBatch(
            user_ids=benign_ids,
            item_ids=item_ids,
            item_grads=item_grads,
            lengths=lengths,
            param_stacks=param_stacks,
            param_owners=param_owners,
            malicious=np.zeros(len(benign_ids), dtype=bool),
        )


# ----------------------------------------------------------------------
# Multi-process round execution
# ----------------------------------------------------------------------


class _ModelMirror:
    """The round-start global model in fork-shared anonymous segments.

    The parent publishes ``item_embeddings`` (and any interaction
    parameters) into the segments before dispatching a round; each
    worker copies them into its private model replica before computing.
    The segments come from the store's ``"mmap"`` allocator, so the
    fork-spawned workers inherit them.
    """

    def __init__(self, model: RecommenderModel):
        self.views = [
            _segment_copy(array, "mmap")
            for array in [model.item_embeddings, *model.interaction_params()]
        ]

    def publish(self, model: RecommenderModel) -> None:
        """Parent side: copy the live model into the shared mapping."""
        arrays = [model.item_embeddings] + list(model.interaction_params())
        for view, array in zip(self.views, arrays):
            view[...] = array

    def load_into(self, model: RecommenderModel) -> None:
        """Worker side: refresh the private replica from the mapping."""
        arrays = [model.item_embeddings] + list(model.interaction_params())
        for array, view in zip(arrays, self.views):
            array[...] = view


class ProcessRoundExecutor:
    """Computes benign round steps across forked worker processes.

    Each worker owns the shards ``{s : s mod workers == w}`` of a
    :class:`~repro.federated.shards.ShardedStateStore` and, per round,
    receives exactly the sampled participants living in those shards.
    Workers return per-client row stacks plus updated user rows over
    their pipe; the parent reassembles everything into exact
    participation order and performs the *single* scatter that commits
    the round — so the downstream fused server merge
    (:meth:`~repro.federated.server.Server.apply_batch`) accumulates in
    precisely the single-process order and the result is bit-identical
    to the in-process reference (pinned by the executor parity suite).

    Crash tolerance falls out of the dataflow: worker tasks are pure
    reads, so a worker SIGKILLed mid-round is re-forked (inheriting the
    store's mappings again) and its subset re-dispatched, with no state
    to repair.
    ``respawns`` counts those events for the chaos suite.

    Under the client-side defense the parent feeds the round to the
    store's miner and ships each task its participants' ``mined`` rows;
    the miner itself never leaves the parent.
    """

    def __init__(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        seed: int,
        store,
        num_workers: int,
        *,
        kernel_backend=None,
    ):
        if store.backend == "heap":
            raise ValueError(
                "ProcessRoundExecutor requires a store in shared segments "
                "(they are what make worker reads see live state); got a "
                "heap-backed in-process store"
            )
        num_shards = len(store.bounds) - 1
        if min(num_workers, num_shards) < 2:
            raise ValueError(
                f"ProcessRoundExecutor needs num_workers >= 2 after the cap "
                f"to the shard count; got num_workers={num_workers} over "
                f"{num_shards} shard(s)"
            )
        self.model = model
        self.train_cfg = train_cfg
        self.seed = seed
        self.store = store
        self.num_workers = min(num_workers, num_shards)
        #: Kernel numpy-fallback calls reported by workers.
        self.worker_kernel_fallbacks = 0
        self._kernel_backend = kernel_backend
        self._bounds = store.bounds
        # One mirror shared by every worker; created before the forks
        # so the anonymous mapping is inherited.
        self._mirror = _ModelMirror(model)
        self._workers = Supervisor(self.num_workers, self._step)
        self._closed = False

    @property
    def respawns(self) -> int:
        """Workers respawned after dying mid-round (chaos counter)."""
        return self._workers.respawns

    # -- worker side (runs in the forked children) ----------------------

    def _step(self, task):
        """One subset's benign stacks: a pure read of the inherited
        store and mirror."""
        round_idx, benign_ids, mined = task
        with kernels.use(self._kernel_backend) as backend:
            fallbacks_before = backend.fallback_calls
            self._mirror.load_into(self.model)
            # param_owners stays behind: it is all clients or none,
            # which the parent re-derives.
            *stacks, _ = _compute_benign_stacks(
                self.model, self.train_cfg, self.seed, self.store, benign_ids,
                round_idx, self.store.defense, mined,
            )
            return stacks, backend.fallback_calls - fallbacks_before

    # -- dispatch -------------------------------------------------------

    def _worker_of(self, benign_ids: np.ndarray) -> np.ndarray:
        shards = np.searchsorted(self._bounds, benign_ids, side="right") - 1
        return shards % self.num_workers

    def compute(
        self,
        benign_ids: np.ndarray,
        round_idx: int,
        mined: np.ndarray | None = None,
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray], np.ndarray
    ]:
        """One round's benign stacks, reassembled in participation order.

        Same tuple as :func:`_compute_benign_stacks` on the full cohort;
        ``mined`` holds the participants' popular sets under the
        client-side defense.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self._mirror.publish(self.model)
        ids = np.asarray(benign_ids, dtype=np.int64)
        owners = self._worker_of(ids)
        workers = np.unique(owners)
        positions = [np.flatnonzero(owners == w) for w in workers]
        tasks = [
            (int(w), (round_idx, ids[at], None if mined is None else mined[at]))
            for w, at in zip(workers, positions)
        ]
        replies = [None] * len(tasks)
        for task, reply in self._workers.run(tasks):
            if isinstance(reply, Failure):
                raise RuntimeError(
                    f"executor worker {tasks[task][0]} failed "
                    f"{reply.attempts} times mid-round: {reply.error}"
                )
            replies[task], fallbacks = reply
            self.worker_kernel_fallbacks += int(fallbacks)
        return self._reassemble(benign_ids, positions, replies)

    def _reassemble(self, benign_ids, task_positions, replies):
        """Merge per-worker subset results back into cohort order."""
        positions = np.concatenate(task_positions)
        order = np.argsort(positions)
        new_users = np.concatenate([r[0] for r in replies])[order]
        lengths_cat = np.concatenate([r[2] for r in replies])
        ids_cat = np.concatenate([r[1] for r in replies])
        grads_cat = np.concatenate([r[3] for r in replies])
        lengths = lengths_cat[order]
        total = int(lengths_cat.sum())
        starts_cat = segment_starts(lengths_cat)
        # Row permutation: client `order[k]`'s contiguous row segment
        # moves to position k, rows within a segment keep their order.
        row_idx = (
            np.repeat(starts_cat[order], lengths)
            + np.arange(total, dtype=np.int64)
            - np.repeat(segment_starts(lengths), lengths)
        )
        item_ids = ids_cat[row_idx]
        item_grads = grads_cat[row_idx]
        num_param_stacks = len(replies[0][4]) if replies else 0
        param_stacks = [
            np.concatenate([r[4][index] for r in replies])[order]
            for index in range(num_param_stacks)
        ]
        param_owners = _all_owners(len(benign_ids), param_stacks)
        return new_users, item_ids, lengths, item_grads, param_stacks, param_owners

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        self._closed = True
        self._workers.close()
