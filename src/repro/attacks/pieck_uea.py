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
step is one forward and one backward over the pseudo-user batches of
the clients still running; a client that stops leaves the stack for
the rest of the target's phase.  Each client still draws its batches from its own
``(seed, "uea", user_id, round_idx)`` stream, one per step it runs,
and targets run as sequential phases, so with row-stable model calls
(:mod:`repro.models.mlp`) every client gets its own loop's bytes.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import (
    AttackPayload,
    PieckClient,
    popular_excluding_targets,
)
from repro.attacks.refinement import PseudoUserRefiner
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel, segment_starts, segment_sums
from repro.models.losses import sigmoid
from repro.rng import spawn_batch
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
    margin or its gradient vanishes.  A step computes only the clients
    still running, and everything it does is in the item table's
    dtype, as the per-client loop's Python-float scalars are.
    """
    config = clients[0].config
    ids = popular_excluding_targets(popular, clients[0].targets)
    pseudo, reference, caps, margins = _pseudo_sets(clients, ids, model, config)
    sizes = [min(max(config.uea_batch_size, 1), len(u)) for u in pseudo]
    draws = np.array([size < len(u) for size, u in zip(sizes, pseudo)])
    streams = spawn_batch(
        clients[0]._seed, ("uea",), np.array([c.user_id for c in clients]),
        (round_idx,),
    )
    rngs: dict[int, np.random.Generator] = {}
    heights = np.array(sizes)
    table = model.item_embeddings
    step_sizes = (0.15 * reference).astype(table.dtype)
    deltas: list[list[np.ndarray]] = [[] for _ in clients]
    for target in clients[0]._targets_to_train():
        start = table[target]
        vecs = np.tile(start, (len(clients), 1))
        norm = np.linalg.norm(start)
        # Re-anchor a previously-poisoned embedding into the pseudo-user
        # norm range; otherwise sigmoid saturation freezes its direction
        # while the popular/user distribution keeps drifting.  Python
        # scalars, as the per-client loop has them.
        for k, cap in enumerate(caps.tolist()):
            if cap > 0 and norm > cap:
                vecs[k] *= cap / norm
        # Optimise to convergence; the upload is still bounded by the
        # step-gradient cap, so this is free for stability.
        running = np.arange(len(clients))
        batches = list(pseudo)
        for _ in range(max(config.inner_steps, 1) * 10):
            for k in running[draws[running]].tolist():
                rng = rngs.get(k)
                if rng is None:
                    rng = rngs[k] = streams[k]
                rows = rng.choice(len(pseudo[k]), sizes[k], replace=False)
                batches[k] = pseudo[k][rows]
            lengths = heights[running]
            logits, grads = _segment_calls(
                model,
                np.concatenate([batches[k] for k in running.tolist()]),
                np.repeat(vecs[running], lengths, axis=0),
                lengths,
                margins[running],
            )
            # Converge on the worst pseudo-user: a high *mean* can hide
            # an embedding pointing away from part of the user cloud.
            met = np.minimum.reduceat(logits, segment_starts(lengths)) >= (
                margins[running]
            )
            # The 1-D norm np.linalg.norm computes, sqrt of a BLAS dot; a
            # row-wise norm rounds differently on some rows.
            norms = np.sqrt(np.array([grad @ grad for grad in grads]))
            # Compared in float64, as the loop's Python-float norm is.
            going = ~met & ~(norms.astype(np.float64) < 1e-12)
            running = running[going]
            if not len(running):
                break
            vecs[running] -= (
                step_sizes[running, None] * grads[going] / norms[going, None]
            )
        for client_deltas, vec in zip(deltas, vecs):
            client_deltas.append(vec - start)
    lr = train_cfg.lr
    deltas = [c._expand_deltas(d) for c, d in zip(clients, deltas)]
    return [
        AttackPayload(c.targets, c._target_step_gradients(model, d, lr, float(r)))
        for c, d, r in zip(clients, deltas, reference)
    ]


def _pseudo_sets(
    clients: list[PieckUEA],
    ids: list[np.ndarray],
    model: RecommenderModel,
    config: AttackConfig,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Each client's pseudo-users, their mean norm, the norm cap and
    the promotion margin.

    Clients whose pseudo-user and mined sets have the same sizes are
    set up together: one gather, one norm pass and one margin call.
    Each quantity is a last-axis reduction or an outer-axis mean of a
    client's own block, so a client gets its own call's bits.
    """
    table = model.item_embeddings
    refined = config.uea_pseudo_source != "popular"
    if refined:
        pseudo = [c._pseudo_users(model, i) for c, i in zip(clients, ids)]
    else:
        pseudo = [None] * len(clients)
    groups: dict[tuple[int, int], list[int]] = {}
    for k, popular_ids in enumerate(ids):
        count = len(pseudo[k]) if refined else len(popular_ids)
        groups.setdefault((count, len(popular_ids)), []).append(k)
    reference = np.empty(len(clients))
    caps = np.empty(len(clients))
    margins = np.full(len(clients), config.promotion_margin)
    for members in groups.values():
        items = table[np.stack([ids[k] for k in members])]  # (m, P, d)
        if refined:
            users = np.stack([pseudo[k] for k in members])  # (m, U, d)
        else:
            users = items
            for j, k in enumerate(members):
                pseudo[k] = items[j]
        norms = np.linalg.norm(users, axis=-1)
        reference[members] = norms.mean(axis=1)
        caps[members] = norms.max(axis=1)
        if config.adaptive_margin:
            # Track the converging FRS: aim above the best score any
            # mined popular item achieves for the pseudo-users.
            margins[members] += _best_mean_logits(model, users, items)
    caps *= config.norm_cap_factor
    return pseudo, reference, caps, margins


def _best_mean_logits(
    model: RecommenderModel, users: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """Per client, the best mean logit a popular item scores over its
    pseudo-users: every (user, item) pair of a client's blocks, in the
    per-client loop's ``repeat`` / ``tile`` row order.  A client's one
    pair gets a call of its own (a lone row rounds as a GEMV)."""
    clients, count, dim = users.shape
    width = items.shape[1]
    users_rep = np.repeat(users, width, axis=1).reshape(-1, dim)
    items_rep = np.tile(items, (1, count, 1)).reshape(-1, dim)
    if count * width > 1:
        logits, _ = model.forward(users_rep, items_rep)
    else:
        logits = np.concatenate([
            model.forward(users_rep[k : k + 1], items_rep[k : k + 1])[0]
            for k in range(clients)
        ])
    return logits.reshape(clients, count, width).mean(axis=1).max(axis=1)


def _segment_calls(
    model: RecommenderModel,
    users: np.ndarray,
    items: np.ndarray,
    lengths: np.ndarray,
    margins: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row logits of stacked segments and each segment's summed item
    gradient of ``-mean log sigmoid(logit - margin)``, each as if the
    segment were called alone.  The buffers, the segments' margins and
    their row counts are in the rows' dtype, as the per-client loop's
    Python scalars are.  A one-row segment gets a call of its own:
    NumPy sends a lone row to GEMV, which rounds differently from a
    GEMM row."""
    dtype = np.result_type(users, items)
    logits = np.empty(len(users), dtype)
    grads = np.empty((len(lengths), users.shape[1]), dtype)
    margins = margins.astype(dtype)
    counts = lengths.astype(dtype)
    lone = lengths == 1
    calls: list = [slice(None)]
    if lone.any():
        calls = [~lone] if not lone.all() else []
        calls += [np.arange(len(lengths)) == k for k in np.flatnonzero(lone)]
    for segs in calls:
        seg_lengths = lengths[segs]
        rows = segs if isinstance(segs, slice) else np.repeat(segs, lengths)
        logits[rows], cache = model.forward(users[rows], items[rows])
        shifted = logits[rows] - np.repeat(margins[segs], seg_lengths)
        dlogits = (sigmoid(shifted) - 1.0) / np.repeat(counts[segs], seg_lengths)
        grads[segs] = segment_sums(
            model.item_grads(cache, dlogits), seg_lengths, users.shape[1]
        )
    return logits, grads
