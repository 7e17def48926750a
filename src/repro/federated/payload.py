"""Gradient payload uploaded by a client each round.

In an FRS a client only uploads gradients for the items in its private
local dataset — the fact at the heart of the paper's defense analysis
(Eq. 11): a cold target item receives benign gradients from almost
nobody, so poisonous gradients dominate no matter how few attackers
there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ClientUpdate", "clip_scale"]


def clip_scale(
    item_grads: np.ndarray, param_grads: list[np.ndarray], max_norm: float
) -> float | None:
    """Uniform down-scale bringing a whole upload to ``max_norm``.

    ``None`` means the upload is already within bounds (or clipping is
    disabled) and must be passed through untouched.  This is the single
    definition of the clip arithmetic — accumulation order included
    (item block first, then each parameter block left to right) — used
    by both :meth:`ClientUpdate.clipped` and the batched cohort path,
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
class ClientUpdate:
    """One client's upload for one communication round.

    ``item_ids`` / ``item_grads`` are row-aligned; ``param_grads``
    covers the learnable interaction function (DL-FRS only; empty list
    means the client does not contribute to interaction parameters).
    ``malicious`` is ground-truth bookkeeping used only by analysis
    code, never by the server or defenses.
    """

    user_id: int
    item_ids: np.ndarray
    item_grads: np.ndarray
    param_grads: list[np.ndarray] = field(default_factory=list)
    malicious: bool = False

    def __post_init__(self) -> None:
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        # Floating gradients upload at the model's own precision;
        # anything else is promoted to float64.
        grads = np.asarray(self.item_grads)
        if not np.issubdtype(grads.dtype, np.floating):
            grads = grads.astype(np.float64)
        self.item_grads = grads
        if self.item_grads.ndim != 2 or len(self.item_ids) != len(self.item_grads):
            raise ValueError(
                f"item_grads {self.item_grads.shape} does not align with "
                f"{len(self.item_ids)} item ids"
            )
        if len(np.unique(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids in a single update")

    @property
    def total_norm(self) -> float:
        """L2 norm of the full uploaded gradient (items + parameters)."""
        total = float(np.sum(self.item_grads**2))
        total += sum(float(np.sum(g**2)) for g in self.param_grads)
        return float(np.sqrt(total))

    def clipped(self, max_norm: float) -> "ClientUpdate":
        """Copy of this update clipped to a maximum total L2 norm."""
        scale = clip_scale(self.item_grads, self.param_grads, max_norm)
        if scale is None:
            return self
        return ClientUpdate(
            user_id=self.user_id,
            item_ids=self.item_ids.copy(),
            item_grads=self.item_grads * scale,
            param_grads=[g * scale for g in self.param_grads],
            malicious=self.malicious,
        )
