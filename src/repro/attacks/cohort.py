"""Team-level struct-of-arrays execution of the malicious population.

The reference adversary is one Python object per malicious client:
``participate`` is called in a loop, each PIECK client owns a private
Δ-Norm tracker holding its own copy of the ``(num_items, dim)`` item
matrix, and each upload materialises a
:class:`~repro.federated.payload.ClientUpdate`.  At the ROADMAP's
production scale (~10k malicious clients at 1% of a million users)
those per-object costs — not the attack math — dominate the round.

:class:`MaliciousCohort` mirrors the benign
:class:`~repro.federated.shards.ShardedStateStore`: it *adopts* the
registry-built client objects (so construction-time RNG draws and any
per-client warm state are untouched) and owns the team-level
state as flat arrays:

* ``times_sampled`` — the per-client participation counters behind
  ``_participation_scale``, bumped and converted to upload scales in
  one vectorised pass per round;
* a :class:`~repro.attacks.mining.CohortMiner` (PIECK only) — stacked
  Δ-Norm accumulators plus the shared per-round observation ledger:
  ``||v_j^r − v_j^{r'}||`` is computed once per distinct previous
  round and fancy-indexed into each sampled client's row, with O(1)
  item-matrix copies per round instead of O(num_malicious);
* per-round stacked target gradients — each payload's target rows run
  through the row-wise
  :func:`~repro.attacks.base.stacked_step_gradients` kernel, and the
  per-client gradient blocks are stacked into one
  ``(clients, targets, dim)`` tensor and scaled by the client scales
  in one broadcast multiply (clipping included).

The attack math is the object path's own, so the two paths agree bit
for bit (asserted end-to-end by ``tests/test_attack_cohort.py``
against the per-client references in ``tests/reference/``):

* ``fedattack`` is fully batched — team-wide ``spawn_batch`` RNG
  streams, one ``sample_local_batches`` stack and one
  ``batch_local_step`` over all sampled clients;
* ``pieck_uea`` clients run in lockstep, one stacked model call per
  inner step (:func:`~repro.attacks.pieck_uea.lockstep_payloads`);
* ``pieck_ipe`` rounds are deterministic in the mined set, so the
  payload is computed once per *distinct* mined P and fanned out;
* ``fedrecattack``, ``pipattack``, ``a_ra`` and ``a_hum`` keep
  per-client inner loops (private RNG streams, warm-started
  surrogates/classifiers) and batch the surrounding stages.

The resulting uploads are :class:`CohortUpload` rows — zero-copy views
into the round's stacked arrays that the batch engine splices directly
into its :class:`~repro.federated.update_batch.UpdateBatch`; no
``ClientUpdate`` is materialised anywhere on this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.attacks.baselines.fedattack import FedAttack
from repro.attacks.mining import CohortMiner
from repro.attacks.pieck_ipe import PieckIPE
from repro.attacks.pieck_uea import PieckUEA, lockstep_payloads
from repro.config import TrainConfig
from repro.datasets.sampling import ragged_csr, sample_local_batches
from repro.federated.payload import clip_scale
from repro.models.base import RecommenderModel, segment_starts
from repro.rng import spawn_batch
from repro.stateful import Stateful

__all__ = ["CohortUpload", "MaliciousCohort"]


@dataclass
class CohortUpload:
    """One malicious client's upload as views into the round's stacks.

    Duck-type-compatible with the attributes the batch engine's splice
    reads from a :class:`~repro.federated.payload.ClientUpdate`
    (``user_id`` / ``item_ids`` / ``item_grads`` / ``param_grads`` /
    ``malicious``), but without the per-object validation, copies or
    dataclass machinery — ``item_ids`` and ``item_grads`` are slices
    of the cohort's stacked round arrays.
    """

    user_id: int
    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)
    malicious: bool = True


class MaliciousCohort(Stateful):
    """Struct-of-arrays state and batched rounds for one attacker team.

    Built over the homogeneous client list produced by
    :func:`~repro.attacks.registry.build_malicious_clients`.  The
    cohort owns the participation counters and (for PIECK) all mining
    state; the adopted objects' own ``_times_sampled`` counters and
    miners are never advanced, so a team must be driven *either*
    through the cohort *or* through per-object ``participate`` calls —
    never both (the simulation builds one cohort per batch-engine run
    and the loop engine none).
    """

    STATE = ("times_sampled", "miner")

    def __init__(self, clients: list[MaliciousClient]):
        if not clients:
            raise ValueError("a cohort needs at least one malicious client")
        kinds = {type(client) for client in clients}
        if len(kinds) != 1:
            raise ValueError(
                f"cohort clients must share one attack class, got {kinds}"
            )
        self.clients = list(clients)
        first = clients[0]
        # The batched passes assume one attacker team: shared config,
        # targets, seed and (for IPE's payload dedup) ablation toggles.
        # The registry guarantees this; a hand-built heterogeneous list
        # would get silently wrong uploads, so verify it up front.
        for client in clients[1:]:
            if (
                (client.config is not first.config and client.config != first.config)
                or not np.array_equal(client.targets, first.targets)
                or client.team_size != first.team_size
                or getattr(client, "_seed", None) != getattr(first, "_seed", None)
                or getattr(client, "num_items", None)
                != getattr(first, "num_items", None)
                or getattr(client, "metric", None) != getattr(first, "metric", None)
                or getattr(client, "use_weights", None)
                != getattr(first, "use_weights", None)
                or getattr(client, "use_partition", None)
                != getattr(first, "use_partition", None)
            ):
                raise ValueError(
                    "cohort clients must form one homogeneous attacker team "
                    "(same config, targets, seed and attack toggles)"
                )
        self.config = first.config
        self.targets = first.targets
        self.team_size = first.team_size
        #: Per-client participation counters (struct-of-arrays mirror
        #: of ``MaliciousClient._times_sampled``).
        self.times_sampled = np.zeros(len(clients), dtype=np.int64)
        #: Stacked Algorithm 1 state + shared observation ledger for
        #: PIECK teams; ``None`` for attacks that do not mine.
        self.miner: CohortMiner | None = None
        if isinstance(first, (PieckIPE, PieckUEA)):
            self.miner = CohortMiner(
                first.miner.num_items,
                self.config.mining_rounds,
                self.config.num_popular,
                len(clients),
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

        # Participation accounting, vectorised: same arithmetic as
        # ``_participation_scale`` for every sampled client at once.
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

        if isinstance(self.clients[0], FedAttack):
            self._fedattack_uploads(
                model, train_cfg, round_idx, rows, active, scales, uploads
            )
        else:
            self._delta_uploads(
                model, train_cfg, round_idx, rows, active, scales, uploads
            )
        return uploads

    # ------------------------------------------------------------------
    # Delta-based attacks (everything except FedAttack)
    # ------------------------------------------------------------------

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
        if isinstance(clients[0], PieckUEA):
            found = lockstep_payloads(clients, mined, model, train_cfg, round_idx)
            self.last_round_payloads = len(found)
        else:
            dedup = isinstance(clients[0], PieckIPE)
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
        # scales are cast to the gradient dtype first: a Python-float
        # scale leaves a reduced-precision upload at its own precision
        # on the object path, and a float64 scales array must not
        # promote it here.
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
    # FedAttack: the whole team's local steps as one tensor pass
    # ------------------------------------------------------------------

    def _fedattack_uploads(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        rows: np.ndarray,
        active: np.ndarray,
        scales: np.ndarray,
        uploads: list[CohortUpload | None],
    ) -> None:
        """Batched inverted local steps for every sampled client.

        Exactly the benign engine's stack recipe with flipped labels:
        per-client RNG streams via ``spawn_batch`` (bit-identical to
        each client's ``spawn(seed, "fedattack", user_id, round)``),
        one ragged ``sample_local_batches`` stack over the fake
        profiles, and one ``batch_local_step`` whose per-segment
        reductions resolve item and interaction-parameter gradients
        per client.
        """
        clients: list[FedAttack] = [self.clients[rows[j]] for j in active]
        user_ids = np.array([client.user_id for client in clients], dtype=np.int64)
        rngs = spawn_batch(
            clients[0]._seed, ("fedattack",), user_ids, (round_idx,)
        )
        item_ids, labels, lengths = sample_local_batches(
            rngs,
            *ragged_csr([client.fake_positives for client in clients]),
            clients[0].num_items,
            train_cfg.negative_ratio,
        )
        item_vecs = model.item_embeddings[item_ids]
        user_vecs = np.stack([client.user_embedding for client in clients])
        # Label inversion is FedAttack's whole trick; the rest is a
        # verbatim benign local step, so the stacked benign kernel
        # applies unchanged.
        result = model.batch_local_step(user_vecs, item_vecs, 1.0 - labels, lengths)
        self.last_round_payloads = len(clients)

        # Scales are applied at the gradient dtype (see _delta_uploads):
        # reduced-precision models upload at their own precision on
        # both paths.
        seg_scales = scales[active]
        row_scales = np.repeat(seg_scales, lengths).astype(
            result.item_grads.dtype, copy=False
        )
        item_grads = result.item_grads * row_scales[:, None]
        param_stacks = [
            seg_scales.astype(stack.dtype, copy=False).reshape(
                (len(clients),) + (1,) * (stack.ndim - 1)
            )
            * stack
            for stack in result.param_grads
        ]
        starts = segment_starts(lengths)
        for k, j in enumerate(active.tolist()):
            seg = slice(int(starts[k]), int(starts[k]) + int(lengths[k]))
            grads, params = self._clip(
                item_grads[seg], [stack[k] for stack in param_stacks]
            )
            uploads[j] = CohortUpload(
                user_id=int(user_ids[k]),
                item_ids=item_ids[seg],
                item_grads=grads,
                param_grads=params,
            )

    # ------------------------------------------------------------------
    # Shared finalisation
    # ------------------------------------------------------------------

    def _clip(
        self, item_grads: np.ndarray, param_grads: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Apply ``ClientUpdate.clipped`` to one client's round slice.

        Shares the single :func:`~repro.federated.payload.clip_scale`
        definition with the materialised path; the slice is contiguous
        and the flat pairwise reduction depends only on the element
        count, so the norm is bit-identical to the reference.
        """
        scale = clip_scale(item_grads, param_grads, self.config.grad_clip)
        if scale is None:
            return item_grads, param_grads
        return item_grads * scale, [grad * scale for grad in param_grads]
