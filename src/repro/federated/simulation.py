"""End-to-end federated training simulation with attack/defense hooks.

One :class:`FederatedSimulation` reproduces the full protocol of
Section III: benign clients (one per dataset user), optionally injected
malicious clients (Section III-B), a server with plain-sum or robust
aggregation, and periodic evaluation of attack effectiveness (ER@K)
and recommendation performance (HR@K).

Rounds execute on the vectorised
:class:`~repro.federated.batch_engine.BatchClientEngine`: all sampled
clients' local steps (BCE or BPR) run as stacked tensor ops and the
server consumes the round as one dense
:class:`~repro.federated.update_batch.UpdateBatch` — fused scatter
when undefended, grouped batched kernels for robust aggregators,
batched filters and audit otherwise.  The per-client reference the
parity suites compare against lives in ``tests/reference/``.

All benign client state is held by one struct-of-arrays
:class:`~repro.federated.shards.ShardedStateStore` (user-embedding rows
+ CSR interactions per shard), built in vectorised passes; evaluation
streams over user blocks, and MF and NCF score only the pairs that can
decide ER@K and HR@K (:meth:`~repro.models.mf.MFModel.ranking_counts`,
:meth:`~repro.models.ncf.NCFModel.ranking_counts`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.attacks.base import select_target_items
from repro.attacks.registry import build_malicious_cohort, num_malicious_for_ratio
from repro.config import AttackConfig, ExperimentConfig, identity_digest
from repro.datasets.base import InteractionDataset
from repro.datasets.loaders import load_dataset
from repro.defenses.registry import build_server_defense, client_defense
from repro.federated.async_engine import AsyncFederationEngine, AsyncStats
from repro.federated.audit import ServerAuditLog
from repro.federated.batch_engine import BatchClientEngine, ProcessRoundExecutor
from repro.federated.faults import FaultStats, UploadTransit
from repro.federated.server import Server
from repro.federated.shards import EmbeddingMatrixView, ShardedStateStore
from repro.metrics.ranking import (
    RankingTally,
    exposure_counts_at_k,
    exposure_ratio_from_counts,
    hit_counts_at_k,
    hit_ratio_from_counts,
    sample_packed_eval_negatives,
)
from repro.models.base import build_model
from repro.rng import spawn
from repro.stateful import Stateful, restore_into, state_of

__all__ = ["EvalRecord", "SimulationResult", "FederatedSimulation"]


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation snapshot during training."""

    round_idx: int
    exposure: float
    hit_ratio: float


@dataclass
class SimulationResult:
    """Final metrics plus the evaluation history of one simulation."""

    exposure: float
    hit_ratio: float
    targets: np.ndarray
    rounds_run: int
    history: list[EvalRecord] = field(default_factory=list)
    item_history: list[np.ndarray] = field(default_factory=list)
    seconds_per_round: float = 0.0
    #: Every upload's fate and the server gate's counters — all-zero
    #: (and ``not fault_stats.any_fault``) for an ideal-synchronous run.
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: Event-loop counters — all-zero (``not async_stats.any_async``)
    #: for a synchronous run.
    async_stats: AsyncStats = field(default_factory=AsyncStats)


class FederatedSimulation:
    """Builds and runs one full federated experiment."""

    def __init__(
        self,
        config: ExperimentConfig,
        dataset: InteractionDataset | None = None,
        *,
        audit: bool = False,
    ):
        self.config = config
        #: What this run *is* (:func:`~repro.config.identity_digest`):
        #: binds checkpoints to the config, ignoring throughput knobs.
        self.config_digest = identity_digest(config)
        # Resolve the kernel backend up front so a missing native
        # toolchain fails at construction, not rounds into a run; every
        # round and evaluation executes inside this backend's dispatch
        # scope.
        self.kernel_backend = kernels.resolve(config.train.kernels)
        self.dataset = dataset if dataset is not None else load_dataset(config.dataset)
        self._reject_unsupported()
        defense = client_defense(config.defense)
        self.model = build_model(
            config.model.kind,
            self.dataset.num_items,
            config.model.embedding_dim,
            mlp_layers=config.model.mlp_layers,
            init_scale=config.model.init_scale,
            seed=config.model.seed,
        )

        attack_cfg = config.attack if config.attack is not None else AttackConfig(
            name="none", malicious_ratio=0.0
        )
        self.attack_cfg = attack_cfg
        self.targets = self._select_targets(attack_cfg)

        # All benign client state lives in one struct-of-arrays store,
        # initialised bit-identically to the object-per-user draws: one
        # in-process heap shard, or per-shard shared mappings (row u is
        # bit-identical either way — sharding is a pure
        # throughput/footprint knob).
        sharding = config.sharding
        self.state = ShardedStateStore.build(
            self.dataset.train_pos,
            self.dataset.num_items,
            config.model.embedding_dim,
            seed=config.seed,
            init_scale=config.model.init_scale,
            defense=defense,
            num_shards=sharding.resolved_shards(self.dataset.num_users),
            backend=sharding.backend,
            lr_range=config.train.client_lr_range,
        )

        num_malicious = num_malicious_for_ratio(
            self.dataset.num_users, attack_cfg.malicious_ratio
        )
        # The attacker and its whole team, one struct-of-arrays
        # MaliciousCohort (vectorised participation counters, shared
        # Δ-Norm observation ledger, stacked uploads); ``None`` for a
        # run without adversary.
        self.malicious_cohort = build_malicious_cohort(
            attack_cfg.name,
            dataset=self.dataset,
            config=attack_cfg,
            targets=self.targets,
            embedding_dim=config.model.embedding_dim,
            num_malicious=num_malicious,
            first_user_id=self.dataset.num_users,
            seed=config.seed,
        )
        #: Benign + injected malicious user count (the paper's |U|).
        self.total_users = self.state.num_users + (
            self.malicious_cohort.team_size if self.malicious_cohort else 0
        )

        aggregator, update_filter = build_server_defense(config.defense)
        self.audit_log = ServerAuditLog() if audit else None
        self.server = Server(
            self.model,
            config.train.lr,
            aggregator=aggregator,
            update_filter=update_filter,
            audit_log=self.audit_log,
            seed=config.seed,
            min_quorum=config.faults.min_quorum,
            max_upload_norm=config.faults.max_upload_norm,
        )
        # One upload transit for either round mode; a synchronous config
        # that injects nothing builds none, so the ideal-synchronous
        # path stays exactly the pre-fault engine.
        self.transit = (
            UploadTransit(config.faults, config.asynchrony, config.seed)
            if config.faults.injects_faults or config.asynchrony.enabled
            else None
        )
        self._eval_negatives, self._eval_negative_counts = (
            sample_packed_eval_negatives(
                self.dataset, config.train.eval_num_negatives, config.seed
            )
        )
        #: User blocks a model's pruned walk could not decide and handed to
        #: full scoring, over every :meth:`evaluate` of this run.
        self.eval_fallback_blocks = 0
        # Multi-process round executor — a compute provider to the
        # batch engine, synchronous or asynchronous: benign stacks are
        # computed by per-shard worker processes reading the shared
        # segments, and the parent performs the single scatter —
        # bit-identical to the in-process path.
        self.executor = (
            ProcessRoundExecutor(
                self.model,
                config.train,
                config.seed,
                self.state,
                sharding.round_workers,
                kernel_backend=self.kernel_backend,
            )
            if sharding.uses_executor
            else None
        )
        self._batch_engine = BatchClientEngine(
            self.model,
            self.server,
            self.state,
            self.malicious_cohort,
            config.train,
            config.seed,
            kernel_backend=self.kernel_backend,
            transit=self.transit,
            executor=self.executor,
        )
        # The asynchronous event-driven mode wraps the batch engine,
        # whose per-wave math and RNG streams it reuses verbatim.
        self._async_engine = (
            AsyncFederationEngine(
                batch_engine=self._batch_engine,
                server=self.server,
                transit=self.transit,
                train_cfg=config.train,
                total_users=self.total_users,
            )
            if config.asynchrony.enabled
            else None
        )

    def _reject_unsupported(self) -> None:
        """Refuse an unrunnable config before anything is allocated.

        Rejected loudly here — never silently degraded mid-run.
        """
        sharding = self.config.sharding
        shards = sharding.resolved_shards(self.dataset.num_users)
        if sharding.uses_executor and shards < 2:  # workers <= shards
            raise ValueError(
                f"sharding.round_workers={sharding.round_workers} needs at "
                f"least 2 shards to spread over; num_shards="
                f"{sharding.num_shards} resolves to {shards} for "
                f"{self.dataset.num_users} users"
            )

    def close(self) -> None:
        """Stop the round workers and close the state store.

        Idempotent.  A closed simulation serves no more rounds or
        evaluations: the store raises on every read.
        """
        if self.executor is not None:
            self.executor.close()
        self.state.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------

    def _select_targets(self, attack_cfg: AttackConfig) -> np.ndarray:
        if attack_cfg.target_items is not None:
            targets = np.asarray(attack_cfg.target_items, dtype=np.int64)
            if len(targets) == 0:
                raise ValueError("target_items must not be empty")
            beyond = targets[targets >= self.dataset.num_items]
            if len(beyond):
                raise ValueError(
                    f"target item {int(beyond[0])} is out of range for a "
                    f"catalogue of {self.dataset.num_items} items"
                )
            return targets
        rng = spawn(self.config.seed, "targets")
        return select_target_items(self.dataset, attack_cfg.num_targets, rng)

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------

    def run_round(self, round_idx: int) -> None:
        """Execute one communication round (steps 1-4 of Section III-A).

        Under asynchrony one "round" is one *aggregation*: the event
        loop advances — dispatching waves, landing uploads — until
        aggregation ``round_idx`` closes, so evaluation cadence and
        checkpoint boundaries are identical in both modes.
        """
        if self._async_engine is not None:
            self._async_engine.run_round(round_idx)
            return
        sampled = self.server.sample_users(
            self.total_users, self.config.train.users_per_round, round_idx
        )
        # The engine scopes the round to its own (identical) backend
        # and keeps the fallback accounting.
        self._batch_engine.run_round(round_idx, sampled)

    def run(
        self,
        rounds: int | None = None,
        *,
        record_item_history: bool = False,
        history_stride: int = 1,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 3,
        resume: bool = True,
    ) -> SimulationResult:
        """Train for ``rounds`` rounds, evaluating per the train config.

        With ``checkpoint_dir`` set, the run writes an atomic versioned
        checkpoint (``checkpoint-r<round>.pkl``) every
        ``checkpoint_every`` rounds, keeps only the newest
        ``checkpoint_keep`` of them (older files are pruned after each
        successful write, so a crash mid-write still leaves the
        previous survivors), and — when ``resume`` is true and one
        exists — picks up from the newest *intact* checkpoint instead
        of round 0: a torn or corrupt file is quarantined and skipped
        in favour of the next-oldest survivor.  The
        resume contract is bit-identity: a run resumed at round ``r``
        produces exactly the model, metrics and fault/async accounting
        of the uninterrupted run (everything per-round is derived
        statelessly from the seed — and under asynchrony the event
        queue travels inside the checkpoint — so restoring the mutable
        state restores the trajectory).  Only ``seconds_per_round`` —
        wall-clock over the rounds this process actually executed — is
        exempt.  The simulation must be constructed from the same
        config (up to its knobs) and dataset that wrote the checkpoint
        (enforced via the config digest and the target-item set), and
        a checkpoint past ``rounds`` is refused rather than resumed.
        """
        train_cfg = self.config.train
        rounds = train_cfg.rounds if rounds is None else rounds
        if checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        history: list[EvalRecord] = []
        item_history: list[np.ndarray] = []
        start_round = 0
        if checkpoint_dir is not None:
            from repro import persistence

            if resume:
                # Walk the retained checkpoints newest-first: a torn or
                # bit-flipped newest file is quarantined (moved aside)
                # and resume falls back to the next-oldest survivor —
                # one corrupt write never strands the whole run.
                for candidate in persistence.resumable_checkpoints(
                    checkpoint_dir
                ):
                    try:
                        payload = persistence.load_checkpoint(candidate)
                    except persistence.IntegrityError:
                        continue
                    if payload["next_round"] > rounds:
                        raise ValueError(
                            f"checkpoint {candidate!r} resumes at round "
                            f"{payload['next_round']}, past the {rounds} "
                            f"rounds requested; ask for at least "
                            f"{payload['next_round']} rounds or pass "
                            f"resume=False"
                        )
                    start_round, history, item_history = self.restore_checkpoint(
                        payload
                    )
                    break
        started = time.perf_counter()
        executed = 0
        for round_idx in range(start_round, rounds):
            if record_item_history and round_idx % history_stride == 0:
                item_history.append(self.model.snapshot_items())
            self.run_round(round_idx)
            executed += 1
            if train_cfg.eval_every and (round_idx + 1) % train_cfg.eval_every == 0:
                exposure, hit_ratio = self.evaluate()
                history.append(EvalRecord(round_idx + 1, exposure, hit_ratio))
            if (
                checkpoint_dir is not None
                and checkpoint_every
                and (round_idx + 1) % checkpoint_every == 0
                # Skip the write only when nothing is left to resume:
                # a partial run (rounds below the configured schedule)
                # checkpoints its stopping point so a later run picks
                # up there instead of replaying from the previous
                # boundary.
                and round_idx + 1 < max(rounds, train_cfg.rounds)
            ):
                from repro import persistence

                persistence.save_checkpoint(
                    persistence.checkpoint_path(checkpoint_dir, round_idx + 1),
                    self.checkpoint_payload(round_idx + 1, history, item_history),
                )
                persistence.prune_checkpoints(checkpoint_dir, checkpoint_keep)
        elapsed = time.perf_counter() - started
        if record_item_history:
            item_history.append(self.model.snapshot_items())

        if history and history[-1].round_idx == rounds:
            # The last eval_every checkpoint already scored the final
            # model state; reuse it instead of paying a second full
            # evaluation pass (evaluation is deterministic in the
            # model and eval negatives, so the record is identical).
            exposure, hit_ratio = history[-1].exposure, history[-1].hit_ratio
        else:
            exposure, hit_ratio = self.evaluate()
            history.append(EvalRecord(rounds, exposure, hit_ratio))
        return SimulationResult(
            exposure=exposure,
            hit_ratio=hit_ratio,
            targets=self.targets,
            rounds_run=rounds,
            history=history,
            item_history=item_history,
            seconds_per_round=elapsed / max(executed, 1),
            fault_stats=self.fault_stats(),
            async_stats=self.async_stats(),
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def _components(self) -> dict[str, Stateful | list]:
        """The run's stateful components, keyed by checkpoint name.

        Which of them exist is a function of the config, which the
        checkpoint binds, so writer and resumer agree.
        """
        components = {
            "server": self.server,
            "store": self.state,
            "engine": self._batch_engine,
            "cohort": self.malicious_cohort,
            "transit": self.transit,
            "async": self._async_engine,
        }
        return {name: c for name, c in components.items() if c is not None}

    def checkpoint_payload(
        self,
        next_round: int,
        history: list[EvalRecord] | None = None,
        item_history: list[np.ndarray] | None = None,
    ) -> dict:
        """Assemble the full mutable state of the run at a round boundary.

        ``state`` maps each component to its ``state()`` — arrays,
        numbers and containers of them — beside the metric history so
        far.  Notably *absent*: RNG state — every stream is spawned
        statelessly from ``(seed, labels, round)``, so determinism
        survives the process boundary for free.
        """
        return {
            "config_digest": self.config_digest,
            "next_round": int(next_round),
            "targets": self.targets.copy(),
            "state": {
                name: state_of(component)
                for name, component in self._components().items()
            },
            "history": list(history or []),
            "item_history": list(item_history or []),
        }

    def restore_checkpoint(
        self, payload: dict
    ) -> tuple[int, list[EvalRecord], list[np.ndarray]]:
        """Restore a :meth:`checkpoint_payload` into this simulation.

        The simulation must have been constructed like the one that
        checkpointed: same config up to its knobs (hash-checked), same
        dataset (target-set-checked — targets are a function of the
        dataset's popularity profile).  Each component restores its
        saved state into itself.  Returns
        ``(next_round, history, item_history)`` for the training loop.
        """
        if payload["config_digest"] != self.config_digest:
            raise ValueError(
                "checkpoint was written by a different experiment config"
            )
        if not np.array_equal(payload["targets"], self.targets):
            raise ValueError(
                "checkpoint target items do not match; was the simulation "
                "built from a different dataset?"
            )
        for name, component in self._components().items():
            restore_into(component, payload["state"][name])
        self.audit_log = self.server.audit_log
        return (
            payload["next_round"],
            list(payload["history"]),
            list(payload["item_history"]),
        )

    def fault_stats(self) -> FaultStats:
        """Current fault/mitigation accounting (transit + server)."""
        return FaultStats(
            **(self.transit.fault_counts() if self.transit else {}),
            rejected_nonfinite=self.server.rejected_nonfinite,
            rejected_oversized=self.server.rejected_oversized,
            quorum_failed_rounds=self.server.quorum_failed_rounds,
            quorum_dropped_uploads=self.server.quorum_dropped_uploads,
        )

    def async_stats(self) -> AsyncStats:
        """Current asynchrony accounting (all-zero when synchronous)."""
        return self._async_engine.stats() if self._async_engine else AsyncStats()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def user_embedding_matrix(self) -> np.ndarray:
        """All benign users' private embeddings, as one read-only matrix.

        For a one-shard store this is a zero-copy live view: row ``u``
        *is* user ``u``'s embedding and keeps evolving as training
        continues (``.copy()`` to snapshot).  With several shards the
        rows live in per-shard segments, so this returns a read-only
        snapshot assembled at call time.  Either way the result is
        read-only so stale callers cannot corrupt client state.
        """
        view = self.state.embedding_block(0, self.dataset.num_users).view()
        view.flags.writeable = False
        return view

    #: Divisor that auto-sizes evaluation blocks.  A fully scored block
    #: costs 11 bytes a cell (the float64 scores, the bool train mask
    #: and the two bool work buffers of ``exposure_counts_at_k``), but
    #: the value stays at the 17 of the old partition-based ranking:
    #: block boundaries decide which rows share a GEMM, and moving them
    #: could move full-path scores in the last ulp.  It sizes the full
    #: path only; the walks keep the boundaries (their undecidable
    #: blocks are scored in full) and bound their own tiles.
    _EVAL_BYTES_PER_CELL = 17
    #: Auto-sized evaluation blocks target this peak footprint.
    _EVAL_BLOCK_BYTES = 128 * 2**20

    def _eval_block_users(self) -> int:
        """Users scored per evaluation block (config override or auto)."""
        configured = self.config.train.eval_chunk_users
        if configured is not None:
            return configured
        per_user = max(self.dataset.num_items * self._EVAL_BYTES_PER_CELL, 1)
        return max(1, min(self.dataset.num_users, self._EVAL_BLOCK_BYTES // per_user))

    def evaluate(self, k: int | None = None) -> tuple[float, float]:
        """Compute (ER@K, HR@K) over benign users, streaming in blocks.

        Users are counted in blocks of ``train.eval_chunk_users`` (or a
        memory-bounded default): each block contributes integer
        hit/eligibility counts that accumulate into the final ratios,
        so no ``num_users x num_items`` array — scores *or* train mask
        — is ever materialised, and the results are bit-identical to
        the dense single-pass evaluation (scoring and ranking are
        row-wise; the final divisions see the same integer counts).
        The model decides how a block is counted
        (:meth:`~repro.models.base.RecommenderModel.ranking_counts`):
        in full, or, for MF and NCF, by an exact pruned walk, whose
        undecidable blocks are counted in full and tallied in
        :attr:`eval_fallback_blocks`.
        """
        k = self.config.train.top_k if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with kernels.use(self.kernel_backend):
            return self._evaluate_scoped(k)

    def _evaluate_scoped(self, k: int) -> tuple[float, float]:
        test_items = self.dataset.test_items

        def count_scores(lo: int, hi: int, scores: np.ndarray):
            train_mask = self.state.train_mask_block(lo, hi)
            return (
                *exposure_counts_at_k(scores, train_mask, self.targets, k),
                *hit_counts_at_k(
                    scores,
                    test_items[lo:hi],
                    self._eval_negatives[lo:hi],
                    self._eval_negative_counts[lo:hi],
                    k,
                ),
            )

        tally = RankingTally(
            self.targets,
            k,
            test_items,
            self._eval_negatives,
            self._eval_negative_counts,
            positives=lambda lo, hi: self.state.positives_csr(np.arange(lo, hi)),
            count_scores=count_scores,
        )
        # Blocks stream straight out of the store (for a sharded one,
        # out of the shard segments): same rows, same block boundaries,
        # so scores do not depend on where the rows live.
        self.model.ranking_counts(
            EmbeddingMatrixView(self.state), self._eval_block_users(), tally
        )
        self.eval_fallback_blocks += tally.fallback_blocks
        return (
            exposure_ratio_from_counts(tally.er_hits, tally.er_eligible),
            hit_ratio_from_counts(tally.hr_hits, tally.hr_total),
        )
