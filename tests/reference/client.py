"""Benign federated client: local training on private interactions.

Each client owns a private user embedding and its interaction history.
Per round it samples a fresh local batch (positives + ``q`` negatives),
computes gradients of the training loss (BCE, Eq. 2, or BPR from the
supplementary material), updates its user embedding locally and uploads
the item/parameter gradients.

When the paper's defense is active, the client additionally feeds the
received item matrix to its own popular-item miner and augments its
loss with the two regularization terms (Eq. 16) via a ``regularizer``
hook (see :class:`repro.defenses.regularization.ClientRegularizer`, the
per-client oracle of the batch engine's one-call terms).

:meth:`BenignClient.participate` is the *reference* local step: the
vectorised batch engine (:mod:`repro.federated.batch_engine`) executes
the same mathematics for a whole round's participants at once and is
tested to match it bit for bit, drawing from the same per-client RNG
stream ``spawn(seed, "client-round", user_id, round_idx)``.

A client exists in one of two storage modes with identical behaviour:

* **standalone** (the constructor) — the client owns its embedding and
  interaction arrays, exactly the original object-per-user layout;
* **store-backed** (:meth:`BenignClient.from_store`) — the client is a
  thin view over one row of a
  :class:`~repro.federated.shards.ShardedStateStore`: ``user_embedding``
  and ``positive_items`` read and write the store's flat arrays, so
  the reference loop and the store-vectorised batch engine observe
  the same state.

One deliberate asymmetry: assigning ``user_embedding`` on a
store-backed view writes the *values* into the store row, so the
store's dtype governs (a single row of a dense matrix cannot change
precision independently), whereas a standalone client rebinds its
owned array and adopts the assigned dtype.
"""

from __future__ import annotations

import numpy as np

from repro.config import TrainConfig
from repro.datasets.sampling import sample_local_batch, sample_negatives
from repro.models.base import RecommenderModel
from repro.models.losses import bce_loss_and_grad, bpr_loss_and_grad
from repro.rng import spawn

from reference.updates import ClientUpdate

__all__ = ["BenignClient"]


class BenignClient:
    """A benign user participating in federated training."""

    def __init__(
        self,
        user_id: int,
        positive_items: np.ndarray,
        num_items: int,
        embedding_dim: int,
        *,
        seed: int = 0,
        init_scale: float = 0.1,
        regularizer=None,
    ):
        self.user_id = user_id
        self.num_items = num_items
        self._store = None
        self._positive_items = np.asarray(positive_items, dtype=np.int64)
        rng = spawn(seed, "client-init", user_id)
        self._user_embedding = rng.normal(scale=init_scale, size=embedding_dim)
        self.regularizer = regularizer
        self._seed = seed

    @classmethod
    def from_store(cls, store, user_id: int) -> "BenignClient":
        """A view client backed by one row of a ``ShardedStateStore``.

        No RNG draw happens here — the store already initialised the
        embedding row bit-identically to the constructor's draw.
        """
        client = cls.__new__(cls)
        client.user_id = user_id
        client.num_items = store.num_items
        client._store = store
        client._positive_items = None
        client._user_embedding = None
        client.regularizer = None
        client._seed = store.seed
        return client

    # ------------------------------------------------------------------
    # State accessors (store rows or owned arrays, transparently)
    # ------------------------------------------------------------------

    @property
    def user_embedding(self) -> np.ndarray:
        """The private embedding — a store-row view when store-backed."""
        if self._store is not None:
            return self._store.row(self.user_id)
        return self._user_embedding

    @user_embedding.setter
    def user_embedding(self, value: np.ndarray) -> None:
        if self._store is not None:
            self._store.set_row(self.user_id, value)
        else:
            self._user_embedding = value

    @property
    def positive_items(self) -> np.ndarray:
        """The private interaction list — a CSR slice when store-backed."""
        if self._store is not None:
            return self._store.positives(self.user_id)
        return self._positive_items

    # ------------------------------------------------------------------
    # One round of participation
    # ------------------------------------------------------------------

    def participate(
        self, model: RecommenderModel, train_cfg: TrainConfig, round_idx: int
    ) -> ClientUpdate:
        """Run one local training step and return the gradient upload."""
        rng = spawn(self._seed, "client-round", self.user_id, round_idx)
        if self.regularizer is not None:
            self.regularizer.observe(model.item_embeddings)

        if train_cfg.loss == "bpr":
            item_ids, item_grads, user_grad = self._bpr_step(model, rng, train_cfg)
            param_grads: list[np.ndarray] = []
        else:
            item_ids, item_grads, user_grad, param_grads = self._bce_step(
                model, rng, train_cfg
            )

        if self.regularizer is not None:
            item_grads = item_grads + self.regularizer.item_grad_terms(
                item_ids, model.item_embeddings
            )
            user_grad = user_grad + self.regularizer.user_grad_term(
                self.user_embedding, model.item_embeddings
            )
            param_hook = getattr(self.regularizer, "param_grad_terms", None)
            if param_hook is not None and model.interaction_params():
                extra = param_hook(model, item_ids)
                if extra:
                    if param_grads:
                        param_grads = [p + e for p, e in zip(param_grads, extra)]
                    else:
                        param_grads = extra

        # Local personalised-model update: u <- u - eta * grad_u.
        self.user_embedding = self.user_embedding - self._client_lr(train_cfg) * user_grad
        return ClientUpdate(
            user_id=self.user_id,
            item_ids=item_ids,
            item_grads=item_grads,
            param_grads=param_grads,
        )

    def _client_lr(self, train_cfg: TrainConfig) -> float:
        """This client's local learning rate.

        Usually the server-specified rate; under the inconsistent-rate
        scenario of supplementary Table X each client draws its own
        fixed rate log-uniformly from ``client_lr_range``.
        """
        if train_cfg.client_lr_range is None:
            return train_cfg.effective_client_lr
        if self._store is not None:
            # The store drew every client's rate in one vectorised pass
            # at build; entry u is bit-identical to the scalar spawn
            # below.
            return float(self._store.client_lrs(np.array([self.user_id]))[0])
        low, high = train_cfg.client_lr_range
        rng = spawn(self._seed, "client-lr", self.user_id)
        return float(np.exp(rng.uniform(np.log(low), np.log(high))))

    # ------------------------------------------------------------------
    # Loss-specific steps
    # ------------------------------------------------------------------

    def _bce_step(
        self,
        model: RecommenderModel,
        rng: np.random.Generator,
        train_cfg: TrainConfig,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
        item_ids, labels = sample_local_batch(
            rng, self.positive_items, self.num_items, train_cfg.negative_ratio
        )
        item_vecs = model.item_embeddings[item_ids]
        logits, cache = model.forward(self.user_embedding, item_vecs)
        _, dlogits = bce_loss_and_grad(logits, labels)
        bundle = model.backward(cache, dlogits)
        user_grad = bundle.users.sum(axis=0)
        return item_ids, bundle.items, user_grad, bundle.params

    def _bpr_step(
        self,
        model: RecommenderModel,
        rng: np.random.Generator,
        train_cfg: TrainConfig,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        positives = self.positive_items
        negatives = sample_negatives(rng, positives, self.num_items, len(positives))
        if len(negatives) < len(positives):
            positives = positives[: len(negatives)]
        pos_vecs = model.item_embeddings[positives]
        neg_vecs = model.item_embeddings[negatives]
        pos_logits, pos_cache = model.forward(self.user_embedding, pos_vecs)
        neg_logits, neg_cache = model.forward(self.user_embedding, neg_vecs)
        _, dpos, dneg = bpr_loss_and_grad(pos_logits, neg_logits)
        pos_bundle = model.backward(pos_cache, dpos)
        neg_bundle = model.backward(neg_cache, dneg)
        user_grad = pos_bundle.users.sum(axis=0) + neg_bundle.users.sum(axis=0)
        item_ids = np.concatenate([positives, negatives])
        item_grads = np.concatenate([pos_bundle.items, neg_bundle.items])
        # BPR may pair the same negative with several positives when the
        # catalogue is small; merge duplicate rows to keep uploads valid.
        # The merge buffer inherits the gradient dtype so reduced-
        # precision models upload at their own precision.
        unique_ids, inverse = np.unique(item_ids, return_inverse=True)
        merged = np.zeros((len(unique_ids), item_grads.shape[1]), dtype=item_grads.dtype)
        np.add.at(merged, inverse, item_grads)
        return unique_ids, merged, user_grad
