"""Coordinated (client + server) defense — the paper's future work.

Section VII of the paper calls for defenses that combine server-side
and client-side strategies. The naive composition fails: NormBound
clips each client's *whole* upload, which shrinks the benign clients'
regularization gradients along with everything else and blunts exactly
the signal that contains the attack (measured as a negative result in
``benchmarks/bench_hybrid_defense.py``).

The coordinated design replaces the per-client norm bound with a
per-*row* scale clip derived from the paper's own Eq. 11 analysis:

* Eq. 11 shows poison *dominates the gradient count* of a cold target
  item, so anything computed per item (median, trimmed mean, Krum) is
  already lost for that item.
* But benign per-item gradient rows have comparable norms *across*
  items — each is a bounded BCE/BPR derivative times a user embedding,
  divided by the local dataset size — and benign *clients* vastly
  outnumber malicious ones in every round.
* The server therefore calibrates a benign row scale as a
  median-of-medians: each client contributes the median norm of its
  own rows, and the cross-client median of those is the scale. One
  value per client means neither a few huge poison rows nor a flood of
  thousands of tiny rows from one client can move the statistic.
* Every row is clipped to a small multiple of that scale.  DL-FRS
  interaction-parameter gradients pass through unclipped: a tensor
  mixes the poison direction with the benign learning signal, so
  whole-tensor clipping blunts the benign clients' corrective
  gradients more than the (few, same-bounded) poisonous ones — on NCF
  it was measured to regress A-hum containment from ER ~5 to ER 100.
  Row-granular statistics are what make the item-side clip sound.

A poisonous row that encodes a ``delta / eta`` jump needs a norm far
above the benign scale to move a cold embedding in one round; after
the clip its per-round push is bounded at the benign scale, which the
benign pushback (and the client-side regularization, which passes
through the clip untouched because it *is* at the benign scale) can
counter.
"""

from __future__ import annotations

import numpy as np

from repro.federated.update_batch import UpdateBatch

__all__ = ["ItemScaleClip"]


def _lower_median(values: np.ndarray) -> float:
    """Median as an actual element (no interpolation).

    Using an element keeps the clip idempotent for ``factor >= 1``:
    clipping rows down *to* the bound can never push an order statistic
    below the previous median.
    """
    return float(np.quantile(values, 0.5, method="lower"))


class ItemScaleClip:
    """Server-side filter clipping each uploaded item-gradient row.

    Parameters
    ----------
    factor:
        Multiple of the calibrated benign row scale allowed per row.
        The default (0.5) deliberately clips *into* the benign row
        distribution: a cold target item receives almost no benign
        pushback (Eq. 11), so a bound with headroom above the benign
        scale still lets poison drift in over the rounds — containment
        needs the per-round poison step at or below the typical benign
        row. Uniform row clipping at this level is harmless to benign
        training (it acts like gradient clipping; measured HR is flat
        to slightly better).
    history:
        Exponential-moving-average weight for smoothing the scale
        across rounds (0 disables smoothing). Smoothing prevents an
        attacker who is heavily sampled in one round from dragging the
        round-local scale.
    """

    def __init__(self, factor: float = 0.5, history: float = 0.5):
        if factor <= 0:
            raise ValueError("factor must be positive")
        if not 0.0 <= history < 1.0:
            raise ValueError("history must lie in [0, 1)")
        self.factor = factor
        self.history = history
        self._smoothed_median: float | None = None

    # ------------------------------------------------------------------
    # Scale calibration
    # ------------------------------------------------------------------

    def _update_scale(self, round_median: float) -> float:
        if self._smoothed_median is None or self.history == 0.0:
            self._smoothed_median = round_median
        else:
            self._smoothed_median = (
                self.history * self._smoothed_median
                + (1.0 - self.history) * round_median
            )
        return self._smoothed_median

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filter_batch(self, batch: UpdateBatch) -> UpdateBatch:
        """Clip the round's item-gradient rows.

        Row norms are computed once over the whole round stack (a
        row-wise reduction, so each value matches the per-client
        computation bit for bit); the median-of-medians calibration
        walks client segments of that norm vector — each client
        contributes the median norm of its own rows, so a single client
        cannot move the statistic however many (or however extreme)
        rows it uploads; the row clip is one masked multiply over the
        stack.  The per-client reference filter in
        ``tests/reference/updates.py`` advances the same EMA state.
        """
        if batch.num_clients == 0:
            return batch
        row_norms = batch.row_norms()
        starts = batch.starts
        client_medians = []
        for k in range(batch.num_clients):
            start = int(starts[k])
            norms = row_norms[start : start + int(batch.lengths[k])]
            positive = norms[norms > 0]
            if len(positive):
                client_medians.append(_lower_median(positive))
        round_median = (
            _lower_median(np.asarray(client_medians)) if client_medians else 0.0
        )
        scale = self._update_scale(round_median)
        if scale <= 0.0:
            return batch
        bound = self.factor * scale
        over = row_norms > bound
        if not over.any():
            return batch
        item_grads = batch.item_grads.copy()
        item_grads[over] *= (bound / row_norms[over])[:, None]
        return batch.with_item_grads(item_grads)
