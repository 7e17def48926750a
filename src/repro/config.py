"""Configuration dataclasses shared across the library.

The configuration hierarchy mirrors the structure of the paper's
experiments:

* :class:`DatasetConfig` — which dataset, at what scale (Table VIII);
* :class:`ModelConfig` — MF-FRS or DL-FRS base model (Section III-A);
* :class:`TrainConfig` — federated training loop hyper-parameters;
* :class:`AttackConfig` — attacker knobs shared by all attacks
  (Section III-B, IV);
* :class:`DefenseConfig` — defense knobs (Section V);
* :class:`FaultConfig` — failure-model knobs (client dropout or
  churn, stragglers, payload corruption, staleness discount and cap,
  server quorum / sanity bounds);
* :class:`AsyncConfig` — asynchronous-federation knobs (traffic
  process, compute/network latency, FedBuff-style buffered
  aggregation, round deadlines);
* :class:`ShardingConfig` — client-state sharding and the
  multi-process round executor;
* :class:`ExperimentConfig` — one full experiment = all of the above.

All dataclasses are frozen: configs are values, never mutated in place.
Use :func:`dataclasses.replace` to derive variants.

Every field is either part of what a run *is* or a **knob**: a field
declared with ``metadata=KNOB`` changes how fast a run computes, never
what it computes (the knobs' parity suites assert it bit for bit).
:func:`identity_record` is the one definition of a run's identity —
every field except the knobs — and :func:`identity_digest` its hash;
the sweep cache key and the checkpoint digest both derive from it, so a
knob can never split a cache or refuse a resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = [
    "DatasetConfig",
    "ModelConfig",
    "TrainConfig",
    "AttackConfig",
    "DefenseConfig",
    "FaultConfig",
    "AsyncConfig",
    "ShardingConfig",
    "ExperimentConfig",
    "KNOB",
    "identity_digest",
    "identity_record",
    "replace",
]

#: Re-exported for convenience so callers need not import dataclasses.
replace = dataclasses.replace

#: Field metadata marking a throughput knob: results never depend on
#: its value, so :func:`identity_record` leaves it out.
KNOB = MappingProxyType({"knob": True})


def _require_finite(config) -> None:
    """Reject NaN and ±inf in a config's float fields (and float tuples).

    Range checks alone let NaN through — every comparison with it is
    false — so a NaN bound silently disables what it bounds.
    """
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        values = value if isinstance(value, tuple) else (value,)
        for index, entry in enumerate(values):
            if isinstance(entry, float) and not math.isfinite(entry):
                where = f"[{index}]" if isinstance(value, tuple) else ""
                raise ValueError(
                    f"{spec.name}{where} must be finite, got {entry!r}"
                )


@dataclass(frozen=True)
class DatasetConfig:
    """Dataset selection and synthesis parameters.

    ``name`` is one of the calibrated presets (``"ml-100k"``, ``"ml-1m"``,
    ``"az"``) or ``"custom"``. ``scale`` multiplies the preset's user /
    item / interaction counts so the full experiment harness can run
    scaled-down (the paper's qualitative results are scale-invariant).
    """

    name: str = "ml-100k"
    scale: float = 1.0
    #: Zipf-like exponent of the item popularity distribution.
    popularity_exponent: float = 1.0
    #: Minimum number of train interactions per user after the split.
    min_interactions_per_user: int = 3
    seed: int = 0


@dataclass(frozen=True)
class ModelConfig:
    """Base recommender model (Section III-A).

    ``kind`` is ``"mf"`` (matrix factorisation, fixed dot product) or
    ``"ncf"`` (neural collaborative filtering, learnable MLP tower,
    Eq. 1). ``mlp_layers`` lists hidden sizes of the ``L`` MLP layers
    used only by NCF.
    """

    kind: str = "mf"
    embedding_dim: int = 16
    mlp_layers: tuple[int, ...] = (32, 16)
    init_scale: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class TrainConfig:
    """Federated training hyper-parameters (Section III-A).

    ``negative_ratio`` is the sampling ratio ``q`` of uninteracted to
    interacted items in each client's local dataset. ``client_lr`` is
    the learning rate used by clients to update their private user
    embedding; by default it equals the server learning rate ``lr``
    (the paper's standard consistent-rate setting, supplementary D).
    """

    rounds: int = 200
    users_per_round: int = 256
    lr: float = 0.05
    client_lr: float | None = None
    #: When set, each client draws its own fixed learning rate
    #: log-uniformly from this (low, high) range — the "dynamic
    #: inconsistent rates" scenario of supplementary Table X.
    client_lr_range: tuple[float, float] | None = None
    negative_ratio: int = 1
    loss: str = "bce"  # "bce" or "bpr" (supplementary E)
    eval_every: int = 0  # 0 = evaluate only at the end
    eval_num_negatives: int = 99
    top_k: int = 10
    #: Users scored per block during evaluation. Evaluation streams
    #: over user blocks with results independent of the block size;
    #: on the full path (small blocks, and blocks a model's pruned walk
    #: cannot decide) peak memory is O(block x items) instead of
    #: O(users x items).  ``None`` picks a memory-bounded default from
    #: the catalogue size.
    eval_chunk_users: int | None = field(default=None, metadata=KNOB)
    #: Kernel backend for the dispatched hot kernels
    #: (:mod:`repro.kernels`): ``"numpy"`` (reference), ``"native"``
    #: (compiled C, bit-identical by contract), or ``None`` to defer to
    #: the ``REPRO_KERNELS`` environment variable.  Requesting
    #: ``"native"`` without the native toolchain raises at simulation
    #: construction instead of silently falling back.
    kernels: str | None = field(default=None, metadata=KNOB)

    def __post_init__(self) -> None:
        if self.client_lr_range is not None:
            low, high = self.client_lr_range
            if not 0 < low <= high:
                raise ValueError(
                    f"client_lr_range must satisfy 0 < low <= high, got "
                    f"{tuple(self.client_lr_range)}"
                )
        if self.eval_chunk_users is not None and self.eval_chunk_users <= 0:
            raise ValueError(
                f"eval_chunk_users must be positive, got {self.eval_chunk_users}"
            )
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        # 0 is legal: it evaluates only at the end.
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.negative_ratio < 1:
            raise ValueError(
                f"negative_ratio must be >= 1, got {self.negative_ratio}"
            )
        if self.users_per_round < 1:
            raise ValueError(
                f"users_per_round must be >= 1, got {self.users_per_round}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        # 0 is legal: it turns HR@K evaluation off.
        if self.eval_num_negatives < 0:
            raise ValueError(
                f"eval_num_negatives must be >= 0, got {self.eval_num_negatives}"
            )

    @property
    def effective_client_lr(self) -> float:
        """Client-side learning rate (defaults to the server rate)."""
        return self.lr if self.client_lr is None else self.client_lr


@dataclass(frozen=True)
class AttackConfig:
    """Attacker knobs shared by all targeted attacks (Sections III-B, IV).

    ``malicious_ratio`` is the proportion of injected malicious users
    (p-tilde in the paper). ``mining_rounds`` is R-tilde in Algorithm 1
    and ``num_popular`` is N, the mined popular set size. The inner
    optimisation (``inner_steps`` / ``inner_lr``) realises the paper's
    "multiple rounds in batches" refinement of the poisonous gradients
    (Section VI-F); the resulting embedding delta is uploaded as a
    gradient scaled by the known server learning rate.

    Execution note: simulations run the whole malicious team as one
    struct-of-arrays :class:`~repro.attacks.cohort.MaliciousCohort` —
    ``mining_rounds`` then drives the team's shared per-round
    observation ledger (:class:`~repro.attacks.mining.CohortMiner`)
    rather than one Δ-Norm tracker per client, bit-identically.
    """

    name: str = "pieck_uea"
    malicious_ratio: float = 0.05
    #: Number of target items |T|.  Evaluation's
    #: ``exposure_counts_at_k`` costs time linear in |T| (one
    #: compare-and-count pass per target), breaking even with a
    #: partition-based top-K at about 10 targets.
    num_targets: int = 1
    target_items: tuple[int, ...] | None = None
    mining_rounds: int = 2
    num_popular: int = 10
    inner_steps: int = 3
    inner_lr: float = 1.0
    #: Weight-decay strength lambda in Eq. 8 (PIECK-IPE only).
    ipe_lambda: float = 0.5
    #: L_IPE ablation toggles (Table VI), config-driven so ablation
    #: cells are fully determined by their :class:`ExperimentConfig`
    #: (and hence content-addressable by the sweep cache): the
    #: alignment metric (``"pcos"`` or ``"pkl"``), the inverse-rank
    #: weights kappa, and the P+/P- sign partition of Eq. 8.
    ipe_metric: str = "pcos"
    ipe_use_weights: bool = True
    ipe_use_partition: bool = True
    #: Popular-item batch size per inner UEA step (Section VI-F notes a
    #: default batch size of 5 and round size of 3).
    uea_batch_size: int = 5
    #: Promotion margin: the inner optimisation pushes target logits to
    #: saturate around ``margin + 4`` instead of 4, so the promoted item
    #: clears the personalised top-K threshold of most users.
    promotion_margin: float = 2.0
    #: Adaptive margin (PIECK-UEA): offset the margin by the best score
    #: any mined popular item achieves against the pseudo-users, so the
    #: promotion keeps tracking the growing personalised score scale as
    #: the FRS converges. Needs no prior knowledge — the attacker reads
    #: everything from the received global model.
    adaptive_margin: bool = True
    #: Before each inner optimisation the target embedding is shrunk to
    #: at most this multiple of the popular-item norm scale. Without
    #: re-anchoring, sigmoid saturation freezes the poisoned embedding
    #: in a stale direction while the popular/user direction keeps
    #: rotating during training.
    norm_cap_factor: float = 1.5
    #: PIECK-IPE: also match the target's embedding *norm* to the mined
    #: popular items (in MF-FRS popularity largely lives in the norm, so
    #: cosine-only alignment cannot lift a target into anyone's top-K).
    ipe_match_norm: bool = True
    #: Each uploaded poisonous gradient moves the target at most this
    #: multiple of the popular-norm scale per contributing client. A
    #: bounded step keeps the attack stable when several malicious
    #: clients are sampled into the same round (their uploads sum at the
    #: server), while preserving the count dominance that defeats
    #: robust aggregation (Eq. 11).
    step_norm_factor: float = 1.0
    #: Multi-target strategy: "together" or "one_then_copy" (supp. C).
    multi_target_strategy: str = "one_then_copy"
    #: PIECK-UEA pseudo-user source: "popular" uses the raw mined
    #: popular embeddings (Eq. 10 verbatim, the paper's attack and the
    #: default); "refined" locally trains fake user embeddings anchored
    #: on the mined populars, which stays effective even when heavy
    #: negative sampling decouples item and user geometry (supp. B,
    #: Table VII's q=10 column) — see :mod:`repro.attacks.refinement`.
    uea_pseudo_source: str = "popular"
    #: Number of refined pseudo-users maintained per malicious client.
    uea_refine_count: int = 8
    #: Warm-started BCE steps run against the current global model on
    #: each participation.
    uea_refine_steps: int = 40
    #: Local learning rate of the refinement steps.
    uea_refine_lr: float = 0.5
    #: Negative sampling ratio of the fake local profiles.
    uea_refine_negative_ratio: int = 4
    #: Upper bound on the norm of uploaded poisonous gradients
    #: (0 = unbounded). Used by stealthier baselines.
    grad_clip: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for k, item in enumerate(self.target_items or ()):
            if item < 0:
                raise ValueError(f"target item {item} is negative")
            if item in self.target_items[:k]:
                raise ValueError(f"target item {item} is listed twice")


@dataclass(frozen=True)
class DefenseConfig:
    """Defense selection and knobs (Section V).

    ``name`` identifies a server-side robust aggregator
    (``norm_bound``, ``median``, ``trimmed_mean``, ``krum``,
    ``multi_krum``, ``bulyan``), the paper's client-side defense
    (``regularization``), or ``none``. ``beta`` / ``gamma`` are the
    trade-off weights of the Re1 / Re2 terms in Eq. 16; ``num_popular``
    and ``mining_rounds`` configure the benign clients' own popular
    item mining.
    """

    name: str = "none"
    beta: float = 0.5
    gamma: float = 0.5
    num_popular: int = 10
    mining_rounds: int = 2
    #: NormBound clipping threshold; <=0 selects a heuristic default.
    norm_bound: float = 0.0
    #: Assumed malicious fraction for TrimmedMean / MultiKrum / Bulyan.
    assumed_malicious_ratio: float = 0.05
    #: Row-norm clip factor for the coordinated defense's server-side
    #: ItemScaleClip (multiple of the flood-robust median-of-medians
    #: row scale). Containment needs the bound *below* the benign
    #: median: a cold target has almost no benign pushback (Eq. 11),
    #: so any headroom above the benign scale lets poison drift in.
    scale_clip_factor: float = 0.5


@dataclass(frozen=True)
class FaultConfig:
    """Failure-model knobs for the fault-tolerant federation runtime.

    The default instance is the *zero-fault* configuration: no fault is
    ever injected, no quorum is enforced, and the simulation is
    bit-identical to a runtime without the fault layer (asserted by the
    parity suites).  All faults are drawn by the deterministic
    :class:`~repro.federated.faults.UploadTransit` from the run's seed
    with the same spawn discipline as the client RNG streams, so the
    same seed always produces the same fault schedule — synchronous or
    asynchronous.

    Per sampled client each round, at most one fault fires:

    * **dropout** (probability ``dropout_rate``) — the client trains
      locally (its private state advances) but its upload never
      reaches the server; under asynchrony this is client churn;
    * **straggler** (probability ``straggler_rate``) — the upload is
      deferred 1..``straggler_max_delay`` rounds (under asynchrony,
      that many round intervals of virtual time) and applied *stale*;
    * **corruption** (probability ``corruption_rate``) — the upload's
      gradient rows are corrupted in transit per ``corruption_mode``:
      ``"nan"`` / ``"inf"`` overwrite them with non-finite values (the
      server sanity gate rejects these, counted), ``"overscale"``
      multiplies them by ``corruption_scale`` (rejected only when
      ``max_upload_norm`` is set).

    Every late upload — a straggler, or under asynchrony any upload
    that lands after its model version moved on — is scaled by
    ``staleness_discount ** delay`` (a FedAsync-style polynomial
    staleness discount) and dropped, counted, once ``delay`` exceeds a
    non-zero ``max_staleness``.  Each upload's fate is counted in
    :class:`~repro.federated.faults.FaultStats`, with the same meaning
    in both round modes.

    Server-side degradation knobs, in both round modes:

    * ``min_quorum`` — a round aggregates only when at least this many
      uploads survive the sanity gate; otherwise the whole round is
      skipped and counted in ``quorum_failed_rounds`` (0 disables);
    * ``max_upload_norm`` — uploads whose total L2 norm exceeds this
      bound are rejected by the sanity gate (0 disables).  The
      non-finite gate needs no knob: it is always on.
    """

    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    #: Straggler delay is drawn uniformly from {1, ..., max_delay}.
    straggler_max_delay: int = 2
    #: Per-version-of-delay multiplier on a stale upload, applied in
    #: the gradient's own dtype.
    staleness_discount: float = 0.5
    #: Uploads staler than this many versions are dropped (and
    #: counted) instead of applied; 0 = unbounded.
    max_staleness: int = 0
    corruption_rate: float = 0.0
    corruption_mode: str = "nan"  # "nan" | "inf" | "overscale"
    corruption_scale: float = 1e6
    min_quorum: int = 0
    max_upload_norm: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("dropout_rate", "straggler_rate", "corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.dropout_rate + self.straggler_rate + self.corruption_rate
        if total > 1.0:
            raise ValueError(
                f"fault rates must sum to at most 1.0, got {total}"
            )
        if self.straggler_max_delay < 1:
            raise ValueError("straggler_max_delay must be >= 1")
        if not 0.0 < self.staleness_discount <= 1.0:
            raise ValueError("staleness_discount must be in (0, 1]")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.corruption_mode not in ("nan", "inf", "overscale"):
            raise ValueError(
                f"unknown corruption_mode {self.corruption_mode!r}; "
                f"expected 'nan', 'inf' or 'overscale'"
            )
        if self.min_quorum < 0:
            raise ValueError("min_quorum must be >= 0")
        if self.max_upload_norm < 0:
            raise ValueError("max_upload_norm must be >= 0")

    @property
    def injects_faults(self) -> bool:
        """Whether any fault is ever injected (drives transit creation)."""
        return (
            self.dropout_rate > 0.0
            or self.straggler_rate > 0.0
            or self.corruption_rate > 0.0
        )


@dataclass(frozen=True)
class AsyncConfig:
    """Asynchronous-federation knobs for the event-driven engine.

    With ``enabled=False`` (the default) the simulation runs the
    classic synchronous round loop and this config is inert.  With
    ``enabled=True`` the run executes on the event-driven
    :class:`~repro.federated.async_engine.AsyncFederationEngine`:
    client *waves* dispatch on a virtual clock every
    ``round_interval`` time units, each client's upload lands after a
    sampled traffic offset + compute latency + network delay (all
    drawn from ``spawn(seed, "async-plan", wave)`` — the same spawn
    discipline as every other stream, so the whole schedule is a pure
    function of ``(seed, config, wave)``), and the server aggregates
    FedBuff-style: a round closes when ``buffer_size`` uploads are
    buffered *or* its deadline expires, whichever comes first.  This
    config is the traffic and timing process only: :class:`FaultConfig`
    composes with it (its faults — client churn is its
    ``dropout_rate`` —, its staleness discount and cap, its server
    gate).

    The *default parameter values are the degenerate configuration*:
    instant traffic, zero latency, ``buffer_size=0`` (=
    the full cohort) and ``round_deadline == round_interval``
    reproduce the synchronous batch engine bit for bit — asserted by
    the sync-equivalence suite.
    """

    enabled: bool = False
    #: Traffic process spreading a wave's uploads over virtual time:
    #: ``"instant"`` (all at dispatch), ``"poisson"`` (exponential
    #: inter-arrival gaps at ``arrival_rate`` clients per time unit),
    #: or ``"trace"`` (offsets cycled from ``trace_offsets``, which no
    #: other traffic process accepts).
    traffic: str = "instant"
    arrival_rate: float = 8.0
    trace_offsets: tuple[float, ...] = ()
    #: Mean of the exponential per-client compute latency (0 = none).
    compute_mean: float = 0.0
    #: Mean of the exponential per-client network delay (0 = none).
    network_mean: float = 0.0
    #: FedBuff K — uploads buffered before aggregation fires.  0 means
    #: "the wave cohort size" (i.e. ``min(users_per_round, |U|)``).
    buffer_size: int = 0
    #: Virtual time between client-wave dispatches.
    round_interval: float = 1.0
    #: A round aggregates whatever it has this long after its first
    #: dispatch/arrival, even below ``buffer_size``.
    round_deadline: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.traffic not in ("instant", "poisson", "trace"):
            raise ValueError(
                f"unknown traffic process {self.traffic!r}; "
                f"expected 'instant', 'poisson' or 'trace'"
            )
        if self.traffic == "trace" and not self.trace_offsets:
            raise ValueError("traffic='trace' needs non-empty trace_offsets")
        if self.traffic != "trace" and self.trace_offsets:
            raise ValueError(
                f"trace_offsets is only read by traffic='trace', "
                f"not traffic={self.traffic!r}"
            )
        if any(offset < 0 for offset in self.trace_offsets):
            raise ValueError("trace_offsets must be >= 0")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if self.compute_mean < 0 or self.network_mean < 0:
            raise ValueError("latency means must be >= 0")
        if self.buffer_size < 0:
            raise ValueError("buffer_size must be >= 0")
        if self.round_interval <= 0:
            raise ValueError("round_interval must be > 0")
        if self.round_deadline <= 0:
            raise ValueError("round_deadline must be > 0")


@dataclass(frozen=True)
class ShardingConfig:
    """Client-state sharding and the multi-process round executor.

    Client state always lives in a
    :class:`~repro.federated.shards.ShardedStateStore`.  With
    ``num_shards=0`` (the default) that is one in-process heap shard.
    With ``num_shards >= 1`` it is ``num_shards`` contiguous user-id
    ranges in anonymous ``MAP_SHARED`` mappings, which processes forked
    after the build inherit.  ``round_workers >= 2`` additionally routes
    benign round computation through the
    :class:`~repro.federated.batch_engine.ProcessRoundExecutor` —
    forked worker processes that each compute only their shards' users,
    capped at the shard count (a config left with one worker is
    refused).  Every layout is bit-identical to the in-process reference
    (asserted by the parity suites).
    """

    #: Number of contiguous user-range shards in shared mappings; 0 =
    #: one in-process heap shard (sharding off).
    num_shards: int = 0
    #: Worker processes for the multi-process round executor; 0 or 1 =
    #: compute rounds in-process (sharded store only).
    round_workers: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 0:
            raise ValueError("num_shards must be >= 0")
        if self.round_workers < 0:
            raise ValueError("round_workers must be >= 0")
        if self.round_workers >= 2 and self.num_shards == 0:
            raise ValueError(
                "round_workers >= 2 requires a sharded store "
                "(num_shards >= 1)"
            )

    @property
    def backend(self) -> str:
        """The store's segment allocator: ``heap`` or ``mmap``."""
        return "heap" if self.num_shards == 0 else "mmap"

    @property
    def uses_executor(self) -> bool:
        """Whether rounds run on the multi-process executor."""
        return self.round_workers >= 2

    def resolved_shards(self, num_users: int) -> int:
        """Effective shard count, capped at one user per shard."""
        return max(1, min(self.num_shards, max(1, num_users)))


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete experiment: dataset + model + training + attack + defense."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig | None = None
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    #: Failure model; the default is the zero-fault (ideal synchronous)
    #: configuration, bit-identical to a runtime without the fault
    #: layer.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Asynchrony model (named ``asynchrony`` because ``async`` is a
    #: keyword); disabled by default.
    asynchrony: AsyncConfig = field(default_factory=AsyncConfig)
    #: Shared-memory sharding / multi-process execution.
    sharding: ShardingConfig = field(default_factory=ShardingConfig, metadata=KNOB)
    seed: int = 0


def identity_record(config) -> dict:
    """What a run *is*: every field of a config dataclass but the knobs.

    Walks :func:`dataclasses.fields` recursively, skipping fields
    declared with ``metadata=KNOB``; nested configs become nested
    dicts, every other value is kept as is (JSON-serialisable for
    every config in this module).
    """
    return {
        spec.name: _identity_value(getattr(config, spec.name))
        for spec in dataclasses.fields(config)
        if not spec.metadata.get("knob")
    }


def _identity_value(value):
    if dataclasses.is_dataclass(value):
        return identity_record(value)
    return value


def identity_digest(config: ExperimentConfig) -> str:
    """sha256 of :func:`identity_record` in canonical JSON form."""
    blob = json.dumps(identity_record(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
