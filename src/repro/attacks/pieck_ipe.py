"""PIECK-IPE: item popularity enhancement (Section IV-C, Algorithm 2).

After mining the popular set P, each malicious client aligns the
embeddings of the target items with the mined popular items via the
sign-partitioned, rank-weighted cosine loss of Eq. 8, and uploads the
resulting embedding move as poisonous gradients for the targets only.

The whole round is deterministic in ``(model, config, P)``: no
per-client RNG, no warm-started state.  The cohort path exploits this
by computing :meth:`PieckIPE._round_payload` once per *distinct* mined
set and fanning the result out to every client that mined the same P
— see :class:`~repro.attacks.cohort.MaliciousCohort`.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackPayload, PieckClient
from repro.config import AttackConfig, TrainConfig
from repro.metrics.divergence import softmax
from repro.models.base import RecommenderModel

__all__ = ["ipe_loss_and_grad", "PieckIPE"]

_EPS = 1e-12


def _inverse_rank_weights(size: int) -> np.ndarray:
    """Normalised inverse-rank weights: most popular item weighs most."""
    weights = np.arange(size, 0, -1, dtype=np.float64)
    return weights / weights.sum()


def ipe_loss_and_grad(
    target_vec: np.ndarray,
    popular_matrix: np.ndarray,
    *,
    lam: float = 0.5,
    metric: str = "pcos",
    use_weights: bool = True,
    use_partition: bool = True,
) -> tuple[float, np.ndarray]:
    """The L_IPE alignment loss (Eq. 8) and its gradient w.r.t. the target.

    ``popular_matrix`` rows are the mined popular items' embeddings in
    mined order (most popular first). The three keyword toggles
    correspond exactly to the Table VI ablation axes:

    * ``metric="pkl"`` replaces weighted cosine alignment by softmax-KL
      minimisation;
    * ``use_weights=False`` drops the inverse-rank weights kappa;
    * ``use_partition=False`` skips the P+/P- sign split.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if metric not in ("pcos", "pkl"):
        raise ValueError(f"unknown metric {metric!r}")
    popular = np.asarray(popular_matrix, dtype=np.float64)
    target = np.asarray(target_vec, dtype=np.float64)
    if popular.ndim != 2 or popular.shape[1] != target.shape[0]:
        raise ValueError("popular_matrix must be (N, d) matching the target")

    if metric == "pkl":
        # Ablation: align distributions by minimising mean KL(v_k || v_j).
        p = softmax(popular)
        q = softmax(target)
        kl = np.sum(p * (np.log(p + _EPS) - np.log(q + _EPS)), axis=1)
        loss = float(np.mean(kl))
        grad = (q[None, :] - p).mean(axis=0)
        return loss, grad

    target_norm = np.linalg.norm(target) + _EPS
    pop_norms = np.linalg.norm(popular, axis=1) + _EPS
    cosines = popular @ target / (pop_norms * target_norm)
    # d cos(v_k, v_j) / d v_j for every popular item k.
    cos_grads = popular / (pop_norms[:, None] * target_norm) - (
        cosines[:, None] * target[None, :] / target_norm**2
    )

    if use_partition:
        subsets = [np.flatnonzero(cosines > 0.0), np.flatnonzero(cosines <= 0.0)]
    else:
        subsets = [np.arange(len(popular))]

    loss = 0.0
    grad = np.zeros_like(target)
    for subset in subsets:
        if len(subset) == 0:
            continue
        if use_weights:
            weights = _inverse_rank_weights(len(subset))
        else:
            weights = np.full(len(subset), 1.0 / len(subset))
        # Eq. 8 divides by lambda^{-1} * |P*|, i.e. multiplies by lambda/|P*|.
        scale = lam / len(subset)
        loss -= scale * float(weights @ cosines[subset])
        grad -= scale * (weights[:, None] * cos_grads[subset]).sum(axis=0)
    return loss, grad


class PieckIPE(PieckClient):
    """Algorithm 2: mine P, then upload popularity-enhancing gradients."""

    def __init__(
        self,
        user_id: int,
        targets: np.ndarray,
        config: AttackConfig,
        num_items: int,
        *,
        metric: str | None = None,
        use_weights: bool | None = None,
        use_partition: bool | None = None,
    ):
        super().__init__(user_id, targets, config, num_items)
        # Keyword overrides win; otherwise the Table VI ablation
        # toggles come from the attack config itself.
        self.metric = config.ipe_metric if metric is None else metric
        self.use_weights = (
            config.ipe_use_weights if use_weights is None else use_weights
        )
        self.use_partition = (
            config.ipe_use_partition if use_partition is None else use_partition
        )

    def _round_payload(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        round_idx: int,
        popular: np.ndarray | None = None,
    ) -> AttackPayload | None:
        popular_ids = self._popular_excluding_targets(popular)
        popular_vecs = model.item_embeddings[popular_ids]
        reference_norm = float(np.mean(np.linalg.norm(popular_vecs, axis=1)))

        deltas: list[np.ndarray] = []
        for target in self._targets_to_train():
            old = model.item_embeddings[target].copy()
            new = self._optimise_target(old, popular_vecs)
            deltas.append(new - old)
        deltas = self._expand_deltas(deltas)

        grads = self._target_step_gradients(
            model, deltas, train_cfg.lr, reference_norm
        )
        return AttackPayload(self.targets, grads)

    # ------------------------------------------------------------------

    def _optimise_target(self, start: np.ndarray, popular: np.ndarray) -> np.ndarray:
        vec = start.copy()
        pop_norms = np.linalg.norm(popular, axis=1)
        reference_norm = float(
            _inverse_rank_weights(len(popular)) @ pop_norms
        )
        # Re-anchor: shrink a previously-poisoned embedding back into the
        # popular-norm range so the cosine gradients stay informative.
        cap = self.config.norm_cap_factor * max(reference_norm, _EPS)
        norm = np.linalg.norm(vec)
        if norm > cap:
            vec *= cap / norm
        for _ in range(max(self.config.inner_steps, 1)):
            _, grad = ipe_loss_and_grad(
                vec,
                popular,
                lam=self.config.ipe_lambda,
                metric=self.metric,
                use_weights=self.use_weights,
                use_partition=self.use_partition,
            )
            vec = vec - self.config.inner_lr * grad
        if self.config.ipe_match_norm:
            # Alignment includes magnitude: in MF-FRS an item's popularity
            # largely lives in its embedding norm.
            vec *= reference_norm / max(np.linalg.norm(vec), _EPS)
        return vec
