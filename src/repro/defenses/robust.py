"""Byzantine-robust server-side aggregation baselines (Section V-A).

Each aggregator combines the per-client gradients received for one
parameter (one item embedding, or one interaction-parameter tensor).
Outputs are on the *sum scale* — robust centre multiplied by the
contributor count — so that the server's learning-rate semantics match
the undefended sum aggregation and HR@K stays comparable (the paper
tunes every defense "optimal" before comparing).

All of them assume poisonous gradients are a minority among the
gradients of any given parameter — the assumption Eq. 11 breaks for
cold target items in FRS.

Every aggregator implements the *grouped* interface
(:meth:`~repro.federated.aggregation.Aggregator.aggregate_stacks`):
the batched defended path hands it all touched items with the same
contributor count at once as one ``(groups, n, dim)`` tensor, and the
scalar ``aggregate`` routes through the identical kernel with a group
axis of one.  The kernels use only lane-stable operations (per-lane
sort/partition/median, sequential middle-axis reductions,
sequentially-accumulated dot products), so each group's result is
bit-identical to aggregating that item alone — the invariant the
loop/batch engine parity suite rests on.  The Krum family shares one
pairwise squared-distance routine dispatched through
:mod:`repro.kernels`; the distance matrix is computed once per grouped
call and reused across Krum scoring, MultiKrum selection and Bulyan's
select-then-trim stages instead of being rebuilt per item.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.federated.aggregation import Aggregator
from repro.federated.update_batch import UpdateBatch

__all__ = [
    "NormBoundFilter",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "KrumAggregator",
    "MultiKrumAggregator",
    "BulyanAggregator",
]


class NormBoundFilter:
    """Clip every client upload to a maximum L2 norm (Sun et al., 2019).

    Used as a server ``update_filter``: when ``threshold`` is not
    positive, the per-round median upload norm is used, which is the
    strongest parameter-free variant (an attacker controlling a
    minority cannot move the median much).
    """

    def __init__(self, threshold: float = 0.0):
        self.threshold = threshold

    def filter_batch(self, batch: UpdateBatch) -> UpdateBatch:
        """Clip the round's uploads, one pass over the stacks.

        Per-client norms come from :meth:`UpdateBatch.client_total_norms`;
        unclipped clients are scaled by exactly 1.0, which is the
        identity on every float, so the result matches the per-client
        reference filter in ``tests/reference/updates.py`` bit for bit.
        """
        if batch.num_clients == 0:
            return batch
        norms = batch.client_total_norms()
        bound = self.threshold
        if bound <= 0:
            bound = float(np.median(norms))
        over = norms > bound
        if bound <= 0 or not over.any():
            return batch
        scales = np.ones(batch.num_clients)
        scales[over] = bound / norms[over]
        return batch.scaled_by_client(scales)


class MedianAggregator(Aggregator):
    """Coordinate-wise median (Yin et al., 2018), on the sum scale."""

    def aggregate(self, grads: np.ndarray) -> np.ndarray:
        return self.aggregate_stacks(self._check(grads)[None])[0]

    def aggregate_stacks(self, stacks: np.ndarray) -> np.ndarray:
        n = stacks.shape[1]
        return np.median(stacks, axis=1) * n


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean (Yin et al., 2018), on the sum scale.

    Trims ``ceil(assumed_ratio * n)`` values from each end per
    coordinate and averages the rest.
    """

    def __init__(self, assumed_ratio: float = 0.05):
        if not 0.0 <= assumed_ratio < 0.5:
            raise ValueError("assumed_ratio must lie in [0, 0.5)")
        self.assumed_ratio = assumed_ratio

    def aggregate(self, grads: np.ndarray) -> np.ndarray:
        return self.aggregate_stacks(self._check(grads)[None])[0]

    def aggregate_stacks(self, stacks: np.ndarray) -> np.ndarray:
        n = stacks.shape[1]
        trim = min(math.ceil(self.assumed_ratio * n), (n - 1) // 2)
        if trim == 0:
            return stacks.mean(axis=1) * n
        ordered = np.sort(stacks, axis=1)
        kept = ordered[:, trim : n - trim]
        return kept.mean(axis=1) * n


def _pairwise_sq_dists(flat: np.ndarray) -> np.ndarray:
    """Pairwise squared distances for stacked gradient groups.

    ``flat`` is ``(groups, n, dim)``; the result is ``(groups, n, n)``
    with ``inf`` on each diagonal (a gradient is never its own
    neighbour).  The single distance computation shared by the whole
    Krum family: each grouped call builds it exactly once and every
    selection stage reads from it.  Dispatched through
    :mod:`repro.kernels`, whose contract accumulates every pair's dot
    product sequentially over the feature axis, seeded with the
    ``d = 0`` term.  A BLAS GEMM is not used: its blocking no native
    port reproduces, and ``X @ X.T`` changes bits between one and two
    OpenBLAS threads.  The native kernel runs groups of 16 or more rows
    eight pairs at a time, each pair in its own accumulator, so the
    order per pair, and every bit, is the scalar loop's.  No sum mixes
    groups, so each group's distances are bit-identical whether the
    item is aggregated alone or inside a thousand-item group — the
    lane-stability property the parity suite
    (``tests/test_batch_defended.py``) asserts per contributor count.
    """
    return kernels.pairwise_sq_dists(flat)


def _krum_scores(dists: np.ndarray, num_malicious: int) -> np.ndarray:
    """Krum score per gradient: sum of its closest squared distances.

    ``dists`` is the precomputed ``(groups, n, n)`` distance tensor,
    which every caller builds for this call alone, so it is partitioned
    in place (``np.partition`` is a copy plus the same
    ``ndarray.partition``); each gradient is scored on its
    ``n - f - 2`` nearest neighbours.
    """
    n = dists.shape[1]
    keep = max(n - num_malicious - 2, 1)
    dists.partition(keep - 1, axis=2)
    return dists[:, :, :keep].sum(axis=2)


class KrumAggregator(Aggregator):
    """Krum (Blanchard et al., 2017): pick the most central gradient."""

    def __init__(self, assumed_ratio: float = 0.05):
        self.assumed_ratio = assumed_ratio

    def aggregate(self, grads: np.ndarray) -> np.ndarray:
        return self.aggregate_stacks(self._check(grads)[None])[0]

    def aggregate_stacks(self, stacks: np.ndarray) -> np.ndarray:
        groups, n = stacks.shape[:2]
        if n <= 2:
            return stacks.sum(axis=1)
        flat = stacks.reshape(groups, n, -1)
        f = max(1, math.ceil(self.assumed_ratio * n))
        scores = _krum_scores(_pairwise_sq_dists(flat), f)
        winners = np.argmin(scores, axis=1)
        return stacks[np.arange(groups), winners] * n


class MultiKrumAggregator(Aggregator):
    """MultiKrum: drop the 2f least-central gradients, average the rest."""

    def __init__(self, assumed_ratio: float = 0.05):
        self.assumed_ratio = assumed_ratio

    def aggregate(self, grads: np.ndarray) -> np.ndarray:
        return self.aggregate_stacks(self._check(grads)[None])[0]

    def aggregate_stacks(self, stacks: np.ndarray) -> np.ndarray:
        groups, n = stacks.shape[:2]
        if n <= 2:
            return stacks.sum(axis=1)
        flat = stacks.reshape(groups, n, -1)
        f = max(1, math.ceil(self.assumed_ratio * n))
        drop = min(2 * f, n - 1)
        scores = _krum_scores(_pairwise_sq_dists(flat), f)
        kept = np.argsort(scores, axis=1, kind="stable")[:, : n - drop]
        out = flat[np.arange(groups)[:, None], kept].mean(axis=1) * n
        return out.reshape((groups,) + stacks.shape[2:])


class BulyanAggregator(Aggregator):
    """Bulyan (Mhamdi et al., 2018): MultiKrum selection + TrimmedMean."""

    def __init__(self, assumed_ratio: float = 0.05):
        self.assumed_ratio = assumed_ratio
        self._trimmed = TrimmedMeanAggregator(min(assumed_ratio, 0.49))

    def aggregate(self, grads: np.ndarray) -> np.ndarray:
        return self.aggregate_stacks(self._check(grads)[None])[0]

    def aggregate_stacks(self, stacks: np.ndarray) -> np.ndarray:
        groups, n = stacks.shape[:2]
        if n <= 3:
            return stacks.sum(axis=1)
        flat = stacks.reshape(groups, n, -1)
        f = max(1, math.ceil(self.assumed_ratio * n))
        keep = max(n - 2 * f, 2)
        scores = _krum_scores(_pairwise_sq_dists(flat), f)
        selected = np.argsort(scores, axis=1, kind="stable")[:, :keep]
        trimmed = self._trimmed.aggregate_stacks(
            flat[np.arange(groups)[:, None], selected]
        )
        # aggregate_stacks returns robust-mean * keep; rescale to the
        # full contributor count.
        out = trimmed / keep * n
        return out.reshape((groups,) + stacks.shape[2:])
