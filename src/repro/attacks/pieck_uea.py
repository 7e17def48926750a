"""PIECK-UEA: user embedding approximation (Section IV-D, Algorithm 3).

Property 3: in the symmetric FRS model, mined popular items' embeddings
distribute like user embeddings (validated by PKL/UCR, Table II). UEA
therefore substitutes the popular embeddings for the inaccessible
benign user embeddings in the promotion loss (Eq. 4 -> Eq. 10) and
derives poisonous gradients for the target items through the model's
interaction function. The approximating embeddings are constants —
only target item gradients are uploaded.

A round's UEA attackers run in lockstep (:func:`lockstep_payloads`;
:meth:`PieckUEA._round_payload` is its one-client case): each inner
step is one forward and one backward over every running client's
pseudo-user batch.  Each client still draws its batches from its own
``(seed, "uea", user_id, round_idx)`` stream, one per step it runs,
and targets run as sequential phases, so with row-stable model calls
(:mod:`repro.models.mlp`) every client gets its own loop's bytes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attacks.base import AttackPayload, PieckClient
from repro.attacks.refinement import PseudoUserRefiner
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel, segment_starts, segment_sums
from repro.models.losses import sigmoid
from repro.rng import spawn
from repro.stateful import state_of

__all__ = ["PieckUEA", "lockstep_payloads"]


class PieckUEA(PieckClient):
    """Algorithm 3: mine P, approximate users with P, promote targets."""

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        seed: int = 0,
    ):
        super().__init__(user_id, targets, config, num_items)
        self._seed = seed
        self._refiner: PseudoUserRefiner | None = None

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        return lockstep_payloads([self], [popular], model, train_cfg, round_idx)[0]

    # ------------------------------------------------------------------

    def _pseudo_users(
        self, model: RecommenderModel, popular_ids: np.ndarray
    ) -> np.ndarray:
        """The user-embedding stand-ins the promotion loss optimises over.

        ``uea_pseudo_source == "popular"`` (the default) is Eq. 10
        verbatim; ``"refined"`` locally trains fake user profiles on the
        mined populars (see :mod:`repro.attacks.refinement`), which
        keeps the approximation faithful even when heavy negative
        sampling separates item and user geometry.
        """
        if self.config.uea_pseudo_source == "popular":
            return model.item_embeddings[popular_ids]
        if self._refiner is None:
            self._refiner = self._new_refiner(popular_ids, model.embedding_dim)
        return self._refiner.refine(model)

    def _new_refiner(
        self, popular_ids: np.ndarray, embedding_dim: int
    ) -> PseudoUserRefiner:
        return PseudoUserRefiner(
            self.num_items,
            embedding_dim,
            popular_ids,
            count=self.config.uea_refine_count,
            steps=self.config.uea_refine_steps,
            lr=self.config.uea_refine_lr,
            negative_ratio=self.config.uea_refine_negative_ratio,
            seed=self._seed * 1_000_003 + self.user_id,
        )

    def state(self) -> dict:
        return {"refiner": state_of(self._refiner)}

    def restore(self, state: dict) -> None:
        """Rebuild a refiner the checkpointed run had already created."""
        saved = state["refiner"]
        self._refiner = None
        if saved is not None:
            self._refiner = self._new_refiner(
                saved["popular_ids"], saved["_vecs"].shape[1]
            )
            self._refiner.restore(saved)


def lockstep_payloads(
    clients: list[PieckUEA],
    popular: list[np.ndarray],
    model: RecommenderModel,
    train_cfg: TrainConfig,
    round_idx: int,
) -> list[AttackPayload]:
    """Algorithm 3's round for UEA clients, in lockstep.

    ``popular[k]`` is client ``k``'s mined set.  Per target, each
    client's copy takes up to ``10 * inner_steps`` normalised steps on
    Eq. 10's ``-mean log sigmoid(logit - margin)`` over drawn
    pseudo-user batches, until its batch's worst logit clears the
    margin or its gradient vanishes.
    """
    config = clients[0].config
    ids = [c._popular_excluding_targets(p) for c, p in zip(clients, popular)]
    pseudo = [c._pseudo_users(model, i) for c, i in zip(clients, ids)]
    rngs = [spawn(c._seed, "uea", c.user_id, round_idx) for c in clients]
    sizes = [min(max(config.uea_batch_size, 1), len(u)) for u in pseudo]
    row_norms = [np.linalg.norm(users, axis=1) for users in pseudo]
    reference = np.array([float(np.mean(norms)) for norms in row_norms])
    # Re-anchor a previously-poisoned embedding into the pseudo-user
    # norm range; otherwise sigmoid saturation freezes its direction
    # while the popular/user distribution keeps drifting.
    caps = config.norm_cap_factor * np.array([float(n.max()) for n in row_norms])
    margins = np.full(len(clients), config.promotion_margin)
    if config.adaptive_margin:
        # Track the converging FRS: aim above the best score any mined
        # popular item achieves for the pseudo-users.
        for k, (users, popular_ids) in enumerate(zip(pseudo, ids)):
            items = model.item_embeddings[popular_ids]
            logits, _ = model.forward(
                np.repeat(users, len(items), axis=0), np.tile(items, (len(users), 1))
            )
            margins[k] += float(logits.reshape(len(users), -1).mean(axis=0).max())
    # Step batch heights are fixed for the round: a client that has
    # stopped keeps its last batch in the stack, its rows ignored.
    lengths = np.array(sizes)
    row_margins = np.repeat(margins, lengths)
    row_counts = np.repeat(lengths, lengths)
    starts = segment_starts(lengths)
    deltas: list[list[np.ndarray]] = [[] for _ in clients]
    for target in clients[0]._targets_to_train():
        start = model.item_embeddings[target]
        vecs = np.tile(start, (len(clients), 1))
        norm = np.linalg.norm(start)
        shrink = (caps > 0) & (norm > caps)
        vecs[shrink] *= (caps[shrink] / norm)[:, None]
        # Optimise to convergence; the upload is still bounded by the
        # step-gradient cap, so this is free for stability.
        running = np.ones(len(clients), dtype=bool)
        batches = list(pseudo)
        for _ in range(max(config.inner_steps, 1) * 10):
            for k in np.flatnonzero(running).tolist():
                if sizes[k] < len(pseudo[k]):
                    rows = rngs[k].choice(len(pseudo[k]), sizes[k], replace=False)
                    batches[k] = pseudo[k][rows]
            logits, grads = _segment_calls(
                model,
                np.concatenate(batches),
                np.repeat(vecs, lengths, axis=0),
                lengths,
                row_margins,
                row_counts,
            )
            # Converge on the worst pseudo-user: a high *mean* can hide
            # an embedding pointing away from part of the user cloud.
            met = np.minimum.reduceat(logits, starts) >= margins
            # The 1-D norm np.linalg.norm computes, sqrt of a BLAS dot; a
            # row-wise norm rounds differently on some rows.
            norms = np.array([math.sqrt(grad @ grad) for grad in grads])
            running &= ~met & ~(norms < 1e-12)
            if not running.any():
                break
            scale = 0.15 * reference[running, None]
            vecs[running] -= scale * grads[running] / norms[running, None]
        for client_deltas, vec in zip(deltas, vecs):
            client_deltas.append(vec - start)
    lr = train_cfg.lr
    deltas = [c._expand_deltas(d) for c, d in zip(clients, deltas)]
    return [
        AttackPayload(c.targets, c._target_step_gradients(model, d, lr, float(r)))
        for c, d, r in zip(clients, deltas, reference)
    ]


def _segment_calls(
    model: RecommenderModel,
    users: np.ndarray,
    items: np.ndarray,
    lengths: np.ndarray,
    row_margins: np.ndarray,
    row_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row logits of stacked segments and each segment's summed item
    gradient of ``-mean log sigmoid(logit - margin)``, each as if the
    segment were called alone.  A one-row segment gets a call of its
    own: NumPy sends a lone row to GEMV, which rounds differently from
    a GEMM row."""
    logits = np.empty(len(users))
    grads = np.empty((len(lengths), users.shape[1]))
    lone = lengths == 1
    calls: list = [slice(None)]
    if lone.any():
        calls = [~lone] if not lone.all() else []
        calls += [np.arange(len(lengths)) == k for k in np.flatnonzero(lone)]
    for segs in calls:
        rows = segs if isinstance(segs, slice) else np.repeat(segs, lengths)
        counts = lengths[segs]
        logits[rows], cache = model.forward(users[rows], items[rows])
        shifted = logits[rows] - row_margins[rows]
        dlogits = (sigmoid(shifted) - 1.0) / row_counts[rows]
        grads[segs] = segment_sums(
            model.backward(cache, dlogits).items, counts, users.shape[1]
        )
    return logits, grads
