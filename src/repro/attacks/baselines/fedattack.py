"""FedAttack (Wu et al., KDD 2022): untargeted hard-sampling poisoning.

The paper's related work (Section II) contrasts *targeted* attacks —
its focus — with untargeted ones that only degrade recommendation
quality. FedAttack is the canonical untargeted FRS attack: malicious
clients behave like regular participants but invert their local
training signal by treating the globally hardest samples adversarially
(here realised as sign-flipped local gradients, its strongest form).

Including it lets the harness demonstrate the stealth contrast the
paper draws: targeted PIECK leaves HR intact while FedAttack shows up
directly in recommendation quality.

Because the round is exactly a benign local step with flipped labels,
the cohort batches whole teams through the same stacked
primitives the benign engine uses (``spawn_batch`` RNG streams,
``sample_local_batches``, ``RecommenderModel.batch_local_step``) — see
:meth:`~repro.attacks.cohort.MaliciousCohort.compute_uploads`.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, MaliciousClient
from repro.config import AttackConfig, TrainConfig
from repro.datasets.sampling import sample_local_batch
from repro.models.base import RecommenderModel
from repro.models.losses import bce_loss_and_grad
from repro.rng import spawn

__all__ = ["FedAttack"]


class FedAttack(MaliciousClient):
    """Untargeted degradation via inverted local training gradients."""

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        embedding_dim: int,
        fake_profile_size: int = 16,
        seed: int = 0,
    ):
        super().__init__(user_id, targets, config, num_items)
        rng = spawn(seed, "fedattack-init", user_id)
        # A fake user profile: random "interacted" items and embedding.
        size = min(fake_profile_size, num_items)
        self.fake_positives = np.sort(
            rng.choice(num_items, size=size, replace=False)
        )
        self.user_embedding = rng.normal(scale=0.1, size=embedding_dim)
        self._seed = seed

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        rng = spawn(self._seed, "fedattack", self.user_id, round_idx)
        item_ids, labels = sample_local_batch(
            rng, self.fake_positives, self.num_items, train_cfg.negative_ratio
        )
        item_vecs = model.item_embeddings[item_ids]
        logits, cache = model.forward(self.user_embedding, item_vecs)
        # Invert the supervision: hard-sample style label flipping.
        _, dlogits = bce_loss_and_grad(logits, 1.0 - labels)
        bundle = model.backward(cache, dlogits)
        return AttackPayload(item_ids, bundle.items, list(bundle.params))
