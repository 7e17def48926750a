"""The per-client PIECK-UEA round (Algorithm 3, Eq. 10), one client at a time.

The package runs a round's UEA attackers in lockstep: one stacked
forward/backward per inner step over every running client's
pseudo-user batch (:func:`repro.attacks.pieck_uea.lockstep_payloads`).
This module keeps the original formulation — each client optimises
each target alone, recomputing the reference norm and the adaptive
margin per target — as the oracle the lockstep must reproduce bit for
bit.

:func:`per_client` turns the ``PieckUEA`` members of a team into
:class:`PerClientPieckUEA` in place, keeping their refiners; every
other attack's members are returned unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload
from repro.attacks.pieck_uea import PieckUEA
from repro.config import TrainConfig
from repro.models.base import RecommenderModel
from repro.models.losses import sigmoid
from repro.rng import spawn

__all__ = ["PerClientPieckUEA", "per_client"]


class PerClientPieckUEA(PieckUEA):
    """``PieckUEA`` whose round runs its own inner loop, target by target."""

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        popular_ids = self._popular_excluding_targets(popular)
        pseudo_users = self._pseudo_users(model, popular_ids)
        reference_norm = float(np.mean(np.linalg.norm(pseudo_users, axis=1)))
        rng = spawn(self._seed, "uea", self.user_id, round_idx)

        popular_vecs = model.item_embeddings[popular_ids]
        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._optimise_target(model, old, pseudo_users, popular_vecs, rng)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)

        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads)

    def _optimise_target(
        self,
        model: RecommenderModel,
        start: np.ndarray,
        pseudo_users: np.ndarray,
        popular_vecs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Inner optimisation of Eq. 10 over batches of pseudo-users."""
        vec = start.copy()
        reference_norm = float(np.mean(np.linalg.norm(pseudo_users, axis=1)))
        cap = self.config.norm_cap_factor * float(
            np.linalg.norm(pseudo_users, axis=1).max()
        )
        norm = np.linalg.norm(vec)
        if cap > 0 and norm > cap:
            vec *= cap / norm
        steps = max(self.config.inner_steps, 1) * 10
        step_size = 0.15 * reference_norm
        batch_size = min(max(self.config.uea_batch_size, 1), len(pseudo_users))
        margin = self.config.promotion_margin
        if self.config.adaptive_margin:
            popular_logits, _ = model.forward(
                np.repeat(pseudo_users, len(popular_vecs), axis=0),
                np.tile(popular_vecs, (len(pseudo_users), 1)),
            )
            per_item = popular_logits.reshape(len(pseudo_users), len(popular_vecs))
            margin += float(per_item.mean(axis=0).max())
        for _ in range(steps):
            if batch_size < len(pseudo_users):
                rows = rng.choice(len(pseudo_users), size=batch_size, replace=False)
                users = pseudo_users[rows]
            else:
                users = pseudo_users
            item_vecs = np.broadcast_to(vec, users.shape).copy()
            logits, cache = model.forward(users, item_vecs)
            if float(logits.min()) >= margin:
                break
            dlogits = (sigmoid(logits - margin) - 1.0) / len(logits)
            bundle = model.backward(cache, dlogits)
            grad = bundle.items.sum(axis=0)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < 1e-12:
                break
            vec = vec - step_size * grad / grad_norm
        return vec


def per_client(clients: list) -> list:
    """Switch a team's UEA clients to the per-client oracle, in place."""
    for client in clients:
        if type(client) is PieckUEA:
            client.__class__ = PerClientPieckUEA
    return clients
