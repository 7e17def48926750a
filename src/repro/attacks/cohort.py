"""The attacker's team: one struct-of-arrays object runs every member.

The paper's adversary is one attacker driving a team of malicious
clients (Section III-B).  :class:`MaliciousCohort` is that attacker.
It builds the team itself from the :class:`~repro.config.AttackConfig`,
so the team is homogeneous by construction, and it owns the team-level
state as flat arrays, mirroring the benign
:class:`~repro.federated.shards.ShardedStateStore`:

* ``times_sampled`` — the per-member participation counters, bumped
  and converted to upload scales in one vectorised pass per round;
* a :class:`~repro.attacks.mining.CohortMiner` (PIECK only) — stacked
  Δ-Norm accumulators plus the shared per-round observation ledger:
  ``||v_j^r − v_j^{r'}||`` is computed once per distinct previous
  round and fancy-indexed into each sampled member's row, with O(1)
  item-matrix copies per round;
* per-round stacked target gradients — each payload's target rows run
  through the row-wise
  :func:`~repro.attacks.base.stacked_step_gradients` kernel, and the
  per-member gradient blocks are stacked into one
  ``(members, targets, dim)`` tensor and scaled by the member scales
  in one broadcast multiply (clipping included).

Each member (a :class:`~repro.attacks.base.MaliciousClient`) keeps
only its payload and its warm state:

* ``pieck_uea`` members run in lockstep, one stacked model call per
  inner step (:func:`~repro.attacks.pieck_uea.lockstep_payloads`);
* ``pieck_ipe`` rounds are deterministic in the mined set, so the
  payload is computed once per *distinct* mined P and fanned out;
* ``fedrecattack``, ``pipattack``, ``a_ra`` and ``a_hum`` keep
  per-member inner loops (private RNG streams, warm-started
  surrogates/classifiers) and batch the surrounding stages.

The resulting uploads are :class:`CohortUpload` rows — zero-copy views
into the round's stacked arrays that the batch engine splices directly
into its :class:`~repro.federated.update_batch.UpdateBatch`.  The
per-object formulation of the same round (one call, one counter and
one miner per member) lives in ``tests/reference/`` as the oracle the
parity suite ``tests/test_attack_cohort.py`` compares against, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.attacks.baselines.fedrecattack import FedRecAttack
from repro.attacks.baselines.interaction import AHum, ARa
from repro.attacks.baselines.pipattack import PipAttack
from repro.attacks.mining import CohortMiner
from repro.attacks.pieck_ipe import PieckIPE
from repro.attacks.pieck_uea import PieckUEA, lockstep_payloads
from repro.config import AttackConfig, TrainConfig
from repro.datasets.base import InteractionDataset
from repro.models.base import RecommenderModel
from repro.rng import spawn
from repro.stateful import Stateful

__all__ = ["CohortUpload", "MaliciousCohort", "clip_scale"]


def clip_scale(
    item_grads: np.ndarray, param_grads: list[np.ndarray], max_norm: float
) -> float | None:
    """Uniform down-scale bringing a whole upload to ``max_norm``.

    ``None`` means the upload is already within bounds (or clipping is
    disabled) and must be passed through untouched.  This is the single
    definition of the clip arithmetic — accumulation order included
    (item block first, then each parameter block left to right) — that
    the cohort and the per-client reference in ``tests/reference`` share,
    so the two cannot drift apart bit-wise.
    """
    if max_norm <= 0:
        return None
    total = float(np.sum(item_grads**2))
    total += sum(float(np.sum(grad**2)) for grad in param_grads)
    norm = float(np.sqrt(total))
    if norm <= max_norm:
        return None
    return max_norm / norm


@dataclass
class CohortUpload:
    """One malicious client's upload as views into the round's stacks.

    ``item_ids`` and ``item_grads`` are slices of the cohort's stacked
    round arrays; the batch engine splices each upload into the
    round's :class:`~repro.federated.update_batch.UpdateBatch` at the
    member's sampled position.
    """

    user_id: int
    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)
    malicious: bool = True


class MaliciousCohort(Stateful):
    """The attacker: its team's state and batched rounds.

    Builds ``num_malicious`` members of the named attack, user ids
    ``first_user_id`` onwards.  ``masked_prior`` selects the paper's
    fair-comparison mode (Table III), in which FedRecAttack's
    interactions and PipAttack's popularity levels are withheld from
    the attacker.  Every member's construction-time RNG draws
    (surrogate embeddings, masked priors) happen here, once, in member
    order.
    """

    STATE = ("times_sampled", "miner", "clients")

    def __init__(
        self,
        name: str,
        *,
        dataset: InteractionDataset,
        config: AttackConfig,
        targets: np.ndarray,
        embedding_dim: int,
        num_malicious: int,
        first_user_id: int,
        masked_prior: bool = True,
        seed: int = 0,
    ):
        self.name = name
        self.config = config
        self.targets = np.asarray(targets, dtype=np.int64)
        #: Row ``k`` is user ``first_user_id + k``.
        self.clients = _build_members(
            name,
            dataset,
            config,
            self.targets,
            embedding_dim,
            range(first_user_id, first_user_id + num_malicious),
            masked_prior,
            seed,
        )
        #: Members controlled by the attacker, known to it by
        #: construction.
        self.team_size = num_malicious
        self.times_sampled = np.zeros(num_malicious, dtype=np.int64)
        #: Stacked Algorithm 1 state + shared observation ledger for
        #: PIECK teams; ``None`` for attacks that do not mine.
        self.miner: CohortMiner | None = None
        if name in ("pieck_ipe", "pieck_uea"):
            self.miner = CohortMiner(
                dataset.num_items,
                config.mining_rounds,
                config.num_popular,
                num_malicious,
            )
        #: Distinct-payload evaluations in the last round (telemetry:
        #: for PIECK-IPE this is the number of distinct mined sets the
        #: round actually optimised, not the number of clients).
        self.last_round_payloads = 0

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def compute_uploads(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        rows: np.ndarray,
    ) -> list[CohortUpload | None]:
        """All sampled malicious clients' uploads for one round.

        ``rows`` are cohort-local client indices in sampled-position
        order (each at most once per round — the server samples
        without replacement).  Returns one entry per input row;
        ``None`` marks a client that uploads nothing this round (a
        PIECK miner still accumulating observations).
        """
        rows = np.asarray(rows, dtype=np.int64)
        uploads: list[CohortUpload | None] = [None] * len(rows)
        self.last_round_payloads = 0
        if not len(rows):
            return uploads

        # Each sampled member scales its upload by 1 / E[co-sampled
        # members]: its observed sampling rate times the team size.
        # Uncoordinated uploads would sum at the server and overshoot
        # the poisoned optimum by that factor every round.
        self.times_sampled[rows] += 1
        rates = self.times_sampled[rows] / max(round_idx + 1, 1)
        scales = 1.0 / np.maximum(rates * self.team_size, 1.0)

        if self.miner is not None:
            self.miner.observe(rows, model.item_embeddings, round_idx)
            active = np.flatnonzero(self.miner.ready[rows])
        else:
            active = np.arange(len(rows))
        if not len(active):
            return uploads

        self._delta_uploads(
            model, train_cfg, round_idx, rows, active, scales, uploads
        )
        return uploads

    def _delta_uploads(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        rows: np.ndarray,
        active: np.ndarray,
        scales: np.ndarray,
        uploads: list[CohortUpload | None],
    ) -> None:
        """The round's payloads, then one stacked scale/clip pass.

        PIECK clients receive their mined set from the cohort miner;
        IPE payloads — deterministic in it — are computed once per
        distinct mined P.
        """
        clients = [self.clients[rows[j]] for j in active]
        mined = [
            self.miner.mined[rows[j]] if self.miner is not None else None
            for j in active
        ]
        if self.name == "pieck_uea":
            found = lockstep_payloads(clients, mined, model, train_cfg, round_idx)
            self.last_round_payloads = len(found)
        else:
            dedup = self.name == "pieck_ipe"
            keys = [p.tobytes() if dedup else k for k, p in enumerate(mined)]
            cache: dict[bytes | int, AttackPayload | None] = {}
            for key, client, popular in zip(keys, clients, mined):
                if key not in cache:
                    cache[key] = client._round_payload(
                        model, train_cfg, round_idx, popular=popular
                    )
            found = [cache[key] for key in keys]
            self.last_round_payloads = len(cache)
        payloads: list[AttackPayload] = []
        payload_rows: list[int] = []
        for j, payload in zip(active.tolist(), found):
            if payload is not None:
                payloads.append(payload)
                payload_rows.append(j)
        if not payloads:
            return

        # One broadcast multiply applies every client's participation
        # scale to the stacked (clients, targets, dim) gradient block —
        # the batched counterpart of ``scale * grads`` per client.  The
        # scales are cast to the gradient dtype first, so a
        # reduced-precision upload keeps its own precision.
        grads = np.stack([payload.item_grads for payload in payloads])
        row_scales = scales[payload_rows].astype(grads.dtype, copy=False)
        grads = row_scales[:, None, None] * grads
        params = [
            [grad.dtype.type(scales[j]) * grad for grad in payload.param_grads]
            for j, payload in zip(payload_rows, payloads)
        ]
        for k, j in enumerate(payload_rows):
            item_grads, param_grads = self._clip(grads[k], params[k])
            uploads[j] = CohortUpload(
                user_id=self.clients[rows[j]].user_id,
                item_ids=payloads[k].item_ids,
                item_grads=item_grads,
                param_grads=param_grads,
            )

    # ------------------------------------------------------------------
    # Shared finalisation
    # ------------------------------------------------------------------

    def _clip(
        self, item_grads: np.ndarray, param_grads: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Clip one client's round slice to ``config.grad_clip``.

        Uses :func:`clip_scale`; the slice is contiguous and the flat
        pairwise reduction depends only on the element count, so the
        norm is the one a materialised per-client upload would take.
        """
        scale = clip_scale(item_grads, param_grads, self.config.grad_clip)
        if scale is None:
            return item_grads, param_grads
        return item_grads * scale, [grad * scale for grad in param_grads]


# ----------------------------------------------------------------------
# Team construction
# ----------------------------------------------------------------------

#: How many benign users FedRecAttack is assumed to partially know.
_FEDREC_KNOWN_USERS = 32
#: Fraction of a known user's interactions that are public.
_FEDREC_KNOWN_FRACTION = 0.5
#: Popular/unpopular label split used by PipAttack (top 15%, Fig. 3).
_PIP_POPULAR_SHARE = 0.15


def _fedrec_known_interactions(
    dataset: InteractionDataset, masked: bool, rng: np.random.Generator
) -> list[np.ndarray]:
    """Public interaction sets: real samples, or random noise when masked."""
    count = min(_FEDREC_KNOWN_USERS, dataset.num_users)
    users = rng.choice(dataset.num_users, size=count, replace=False)
    known: list[np.ndarray] = []
    for user in users:
        items = dataset.train_pos[int(user)]
        take = max(1, int(round(len(items) * _FEDREC_KNOWN_FRACTION)))
        if masked:
            known.append(rng.choice(dataset.num_items, size=take, replace=False))
        else:
            known.append(rng.choice(items, size=min(take, len(items)), replace=False))
    return known


def _pip_labels(
    dataset: InteractionDataset, masked: bool, rng: np.random.Generator
) -> np.ndarray:
    """Binary popularity labels: true top-15%, or shuffled when masked."""
    ranking = dataset.popularity_ranking()
    labels = np.zeros(dataset.num_items)
    head = max(1, int(round(dataset.num_items * _PIP_POPULAR_SHARE)))
    labels[ranking[:head]] = 1.0
    if masked:
        rng.shuffle(labels)
    return labels


def _build_members(
    name: str,
    dataset: InteractionDataset,
    config: AttackConfig,
    targets: np.ndarray,
    embedding_dim: int,
    user_ids: range,
    masked_prior: bool,
    seed: int,
) -> list[MaliciousClient]:
    """One member of the named attack per user id, in id order."""
    rng = spawn(seed, "attack-build", name)
    shape = dict(embedding_dim=embedding_dim, seed=seed)
    members: list[MaliciousClient] = []
    for user_id in user_ids:
        args = (user_id, targets, config, dataset.num_items)
        if name == "pieck_ipe":
            member = PieckIPE(*args)
        elif name == "pieck_uea":
            member = PieckUEA(*args, seed=seed)
        elif name == "fedrecattack":
            known = _fedrec_known_interactions(dataset, masked_prior, rng)
            member = FedRecAttack(*args, known, **shape)
        elif name == "pipattack":
            member = PipAttack(*args, _pip_labels(dataset, masked_prior, rng), **shape)
        elif name == "a_ra":
            member = ARa(*args, **shape)
        elif name == "a_hum":
            member = AHum(*args, **shape)
        else:
            raise ValueError(f"unknown attack {name!r}")
        members.append(member)
    return members
