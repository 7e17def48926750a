"""Server-side audit log: per-item contribution statistics per round.

The defense analysis of Section V-A is a statement about *counts*: for
a cold target item the poisonous gradients outnumber the benign ones
(Eq. 11), which is why count-based robust aggregation cannot hold. The
audit log records exactly the quantities that statement is about — per
item and per round, how many clients contributed a gradient and with
what mass — so the theory can be checked against a live simulation
(see :mod:`repro.analysis.audit` and ``examples/defense_audit.py``).

The ``malicious`` flag on :class:`~repro.federated.update_batch.UpdateBatch`
is ground-truth bookkeeping available to analysis code only; a real
server cannot see it, and no defense in :mod:`repro.defenses` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.federated.update_batch import UpdateBatch
from repro.stateful import Stateful

__all__ = ["ItemRoundRecord", "ServerAuditLog"]


@dataclass(frozen=True)
class ItemRoundRecord:
    """Contribution statistics for one item in one round."""

    round_idx: int
    item_id: int
    benign_count: int
    malicious_count: int
    benign_norm: float
    malicious_norm: float

    @property
    def total_count(self) -> int:
        """Number of clients that uploaded a gradient for this item."""
        return self.benign_count + self.malicious_count

    @property
    def poison_count_share(self) -> float:
        """Fraction of this item's gradients that are poisonous.

        The empirical counterpart of Eq. 11's expected proportion.
        """
        total = self.total_count
        return self.malicious_count / total if total else 0.0

    @property
    def poison_mass_share(self) -> float:
        """Fraction of this item's gradient L2 mass that is poisonous."""
        total = self.benign_norm + self.malicious_norm
        return self.malicious_norm / total if total else 0.0


@dataclass
class ServerAuditLog(Stateful):
    """Accumulates :class:`ItemRoundRecord` rows across training rounds.

    Attach to a :class:`repro.federated.server.Server` via its
    ``audit_log`` argument; the server calls :meth:`record_batch` with
    the raw uploads of every round (before any defense filter runs, so
    the log reflects what the attacker actually sent).
    """

    STATE = ("records", "_round_idx")

    records: list[ItemRoundRecord] = field(default_factory=list)
    _round_idx: int = 0

    def record_batch(self, batch: UpdateBatch) -> None:
        """Append one round's per-item contribution statistics.

        Records are identical to the per-client reference's on the
        equivalent materialised updates: row norms are a row-wise
        reduction (the same values either way), and ``np.bincount``
        accumulates its weights sequentially in row order — the upload
        order the reference's dict accumulation follows — so every norm
        sum is bit-identical.
        """
        if len(batch.item_ids) == 0:
            self._round_idx += 1
            return
        row_mal = np.repeat(batch.malicious, batch.lengths)
        row_norms = np.linalg.norm(batch.item_grads, axis=1)
        unique_ids, inverse = np.unique(batch.item_ids, return_inverse=True)
        bins = len(unique_ids)
        benign_counts = np.bincount(inverse[~row_mal], minlength=bins)
        mal_counts = np.bincount(inverse[row_mal], minlength=bins)
        benign_norms = np.bincount(
            inverse[~row_mal], weights=row_norms[~row_mal], minlength=bins
        )
        mal_norms = np.bincount(
            inverse[row_mal], weights=row_norms[row_mal], minlength=bins
        )
        for i, item_id in enumerate(unique_ids):
            self.records.append(
                ItemRoundRecord(
                    round_idx=self._round_idx,
                    item_id=int(item_id),
                    benign_count=int(benign_counts[i]),
                    malicious_count=int(mal_counts[i]),
                    benign_norm=float(benign_norms[i]),
                    malicious_norm=float(mal_norms[i]),
                )
            )
        self._round_idx += 1

    @property
    def rounds_recorded(self) -> int:
        """Number of rounds the log has seen."""
        return self._round_idx

    def for_item(self, item_id: int) -> list[ItemRoundRecord]:
        """All records of one item, in round order."""
        return [r for r in self.records if r.item_id == item_id]

    def poisoned_items(self) -> np.ndarray:
        """Item ids that received at least one malicious gradient."""
        ids = {r.item_id for r in self.records if r.malicious_count > 0}
        return np.array(sorted(ids), dtype=np.int64)
