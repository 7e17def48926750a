"""The per-object attacker round: one ``participate`` call per member.

The package runs the attacker's team as one
:class:`repro.attacks.cohort.MaliciousCohort`.  This module keeps the
per-object formulation as the oracle the cohort must reproduce bit for
bit: a :class:`ReferenceAttacker` wraps one cohort member with its own
participation counter and, for PIECK, its own Algorithm 1 miner.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.attacks.base import PieckClient
from repro.stateful import Stateful

from reference.uea import per_client
from reference.updates import ClientUpdate

__all__ = ["ReferenceAttacker", "ReferenceMiner", "attackers"]


class ReferenceMiner(Stateful):
    """Algorithm 1 for one member: Δ-Norm over its own observations."""

    STATE = ("accumulated", "observations", "last", "mined")

    def __init__(self, num_items: int, mining_rounds: int, num_popular: int):
        self.mining_rounds = mining_rounds
        self.num_popular = num_popular
        self.accumulated = np.zeros(num_items)
        self.observations = 0
        self.last: np.ndarray | None = None
        self.mined: np.ndarray | None = None

    def observe(self, item_matrix: np.ndarray, copy: np.ndarray) -> None:
        """Add this round's Δ-Norm; ``copy`` is a retainable copy of
        ``item_matrix``, shared by the round's observers."""
        if self.last is not None:
            self.accumulated += kernels.row_diff_norms(item_matrix, self.last)
        self.observations += 1
        self.last = copy
        if self.observations > self.mining_rounds:
            order = np.argsort(-self.accumulated, kind="stable")
            self.mined, self.last = order[: self.num_popular], None


class ReferenceAttacker(Stateful):
    """One member, driven through its own ``participate`` calls."""

    STATE = ("_times_sampled", "miner", "client")

    def __init__(self, client, team_size: int = 1, copies: dict | None = None):
        self.client = client
        self.team_size = team_size
        self._times_sampled = 0
        self.miner = None
        if isinstance(client, PieckClient):
            config = client.config
            self.miner = ReferenceMiner(
                client.num_items, config.mining_rounds, config.num_popular
            )
        #: ``{round: item-matrix copy}`` shared by a team's miners.
        self._copies = {} if copies is None else copies

    def participate(self, model, train_cfg, round_idx: int) -> ClientUpdate | None:
        """Observe the global model and optionally upload poison; PIECK
        uploads from the round whose observation freezes P on."""
        scale = self._participation_scale(round_idx)
        miner = self.miner
        if miner is not None and miner.mined is None:
            if round_idx not in self._copies:
                self._copies.clear()
                self._copies[round_idx] = model.item_embeddings.copy()
            miner.observe(model.item_embeddings, self._copies[round_idx])
            if miner.mined is None:
                return None
        popular = None if miner is None else miner.mined
        payload = self.client._round_payload(model, train_cfg, round_idx, popular)
        if payload is None:
            return None
        update = ClientUpdate(
            user_id=self.client.user_id,
            item_ids=payload.item_ids,
            item_grads=scale * payload.item_grads,
            param_grads=[scale * grad for grad in payload.param_grads],
            malicious=True,
        )
        clip = self.client.config.grad_clip
        return update.clipped(clip) if clip > 0 else update

    def _participation_scale(self, round_idx: int) -> float:
        """1 / E[co-sampled members], from this member's own sampling
        rate and the team size.  Call exactly once per participation."""
        self._times_sampled += 1
        rate = self._times_sampled / max(round_idx + 1, 1)
        return 1.0 / max(rate * self.team_size, 1.0)


def attackers(cohort) -> list[ReferenceAttacker]:
    """The oracle for a cohort's members (UEA ones switched to the
    per-client inner loop, in place), one shared copy a round."""
    if cohort is None:
        return []
    copies: dict = {}
    return [
        ReferenceAttacker(client, cohort.team_size, copies)
        for client in per_client(cohort.clients)
    ]
