"""NumPy reference implementations of the dispatched hot kernels.

This module *defines* the numerical contract of every kernel in the
dispatch table: each reduction accumulates **sequentially** in a
documented order (row order for scatters, ``d = 0..dim-1`` for inner
products, seeded with the ``d = 0`` term), and everything else is a
plain elementwise IEEE-754 operation.  The native backend
(:mod:`repro.kernels._native`) reproduces these results bit for bit —
that is the accumulation-order contract the differential parity suite
(``tests/test_kernels.py``) enforces — so NumPy formulations whose
accumulation order is an implementation detail (``np.matmul``'s BLAS
GEMM, ``np.einsum``'s unrolled sum-of-products, ``np.add.reduce``'s
pairwise blocking along the fast axis) are deliberately avoided here.

Two NumPy behaviours *are* part of the contract because they already
accumulate sequentially (and the repo's engine-parity suites lean on
them): ``np.bincount`` scatters weights in row order into zero-initialised
bins, and outer-axis ``np.add.reduce`` sums rows in row order seeded
with the additive identity ``+0.0`` (so a leading ``-0.0`` row does
not keep its sign bit — identity seeding, not first-row seeding).
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyKernels"]


def composite_indices(item_ids: np.ndarray, dim: int) -> np.ndarray:
    """Flat ``(item, dim)`` scatter indices, always computed in int64.

    ``item_ids`` arrives in whatever integer dtype the caller produced
    (CSR indices are commonly int32); the composite ``id * dim + d``
    reaches ``num_items * dim``, which overflows int32 on
    catalogue-scale inputs, so the ids are upcast *before* the
    multiply.
    """
    ids = np.asarray(item_ids).astype(np.int64, copy=False)
    return (ids[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()


class NumpyKernels:
    """The reference backend: pure NumPy, sequential-order reductions."""

    name = "numpy"
    #: Dispatched calls this backend could not serve natively.  Always
    #: zero here — the reference serves everything — but present so
    #: fallback accounting reads uniformly across backends.
    fallback_calls = 0

    # -- scatter_sum ---------------------------------------------------

    def scatter_sum(
        self, item_ids: np.ndarray, item_grads: np.ndarray, num_items: int
    ) -> np.ndarray:
        """Scatter-add gradient rows into a dense ``(num_items, dim)`` sum.

        Contract: ``out[ids[r]] += grads[r]`` sequentially in row order,
        accumulated in float64 (reduced-precision rows are cast exactly,
        like ``np.bincount`` casts its weights).
        """
        dim = item_grads.shape[1]
        flat = np.bincount(
            composite_indices(item_ids, dim),
            weights=item_grads.ravel(),
            minlength=num_items * dim,
        )
        # np.bincount ignores an *empty* weights array and returns
        # int64 counts; pin the contract's float64 either way.
        return flat.astype(np.float64, copy=False).reshape(num_items, dim)

    # -- segment_div ---------------------------------------------------

    def segment_div(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Divide each segment's rows by ``max(len(segment), 1)``.

        The fused form of ``values / repeat(maximum(lengths, 1),
        lengths)`` behind the segmented BCE/BPR logit gradients; the
        divisor is cast to ``values.dtype`` so reduced-precision
        gradients stay at their own precision.  Pure elementwise IEEE
        division — no accumulation order to pin down.
        """
        divisors = np.repeat(np.maximum(lengths, 1), lengths).astype(values.dtype)
        return values / divisors

    # -- segment_sums --------------------------------------------------

    def segment_sums(
        self, rows: np.ndarray, lengths: np.ndarray, dim: int
    ) -> np.ndarray:
        """Sum each segment's contiguous rows, row by row.

        Contract: per segment, ``np.add.reduce`` over the row axis —
        which seeds with the additive identity ``+0.0`` and accumulates
        the rows sequentially (an empty segment is the identity, and a
        leading ``-0.0`` row does not keep its sign bit).  This is
        exactly the per-client reduction the loop engine performs.
        One column is the exception: NumPy sums an ``(L, 1)`` segment
        along its contiguous axis, pairwise once ``L >= 8``, so it is
        reduced beside a zero column, which restores the outer-axis
        order.
        """
        out = np.empty((len(lengths), dim), dtype=rows.dtype)
        if dim == 1:
            rows = np.concatenate([rows, np.zeros_like(rows)], axis=1)
        reduce_rows = np.add.reduce
        start = 0
        for index, length in enumerate(lengths.tolist()):
            out[index] = reduce_rows(rows[start : start + length], axis=0)[:dim]
            start += length
        return out

    # -- pairwise_sq_dists ---------------------------------------------

    def pairwise_sq_dists(self, flat: np.ndarray) -> np.ndarray:
        """Pairwise squared distances for ``(groups, n, dim)`` stacks.

        Contract: ``dot[g, i, j]`` accumulates ``flat[g, i, d] *
        flat[g, j, d]`` sequentially over ``d`` (seeded with the first
        term); ``dists = (sq_i + sq_j) - 2 * dot`` elementwise with the
        squared norms read off the diagonal; ``inf`` on each diagonal.
        The sequential loop replaces the batched BLAS GEMM the kernel
        used before the backend split: GEMM blocking is an
        implementation detail no native port can reproduce bit for bit,
        while this order is trivially portable — and remains lane-stable
        (lane ``g`` is bit-identical aggregated alone or in any group),
        which is the invariant the defended engine-parity suite rests
        on.
        """
        groups, n, dim = flat.shape
        if dim == 0:
            dots = np.zeros((groups, n, n))
        else:
            dots = flat[:, :, 0, None] * flat[:, None, :, 0]
            for d in range(1, dim):
                dots = dots + flat[:, :, d, None] * flat[:, None, :, d]
        sq_norms = np.einsum("gii->gi", dots)
        dists = (sq_norms[:, :, None] + sq_norms[:, None, :]) - 2.0 * dots
        dists[:, np.arange(n), np.arange(n)] = np.inf
        return dists

    # -- stacked_step_gradients ----------------------------------------

    def stacked_step_gradients(
        self,
        old_rows: np.ndarray,
        new_rows: np.ndarray,
        server_lr: float,
        max_step: float,
    ) -> np.ndarray:
        """Row-stacked bounded-step attack gradients.

        Contract: ``delta = new - old`` per row; the per-row L2 norm
        accumulates the squared components sequentially over ``d``
        (seeded with the ``d = 0`` term — not NumPy's pairwise-blocked
        ``add.reduce`` and not the 1-D BLAS-dot ``linalg.norm``, neither
        of which a native port can match); rows over ``max_step`` are
        scaled by ``max_step / norm``; the result is
        ``(old - (old + delta)) / server_lr`` elementwise.
        """
        deltas = new_rows - old_rows
        dim = deltas.shape[1] if deltas.ndim == 2 else 0
        if max_step > 0 and dim > 0 and len(deltas):
            sq = deltas[:, 0] * deltas[:, 0]
            for d in range(1, dim):
                sq = sq + deltas[:, d] * deltas[:, d]
            norms = np.sqrt(sq)
            clipped = norms > max_step
            if np.any(clipped):
                # ``deltas`` is freshly allocated above — clip in place.
                deltas[clipped] = (
                    deltas[clipped] * (max_step / norms[clipped])[:, None]
                )
        shifted = old_rows + deltas
        return (old_rows - shifted) / server_lr

    # -- row_diff_norms ------------------------------------------------

    def row_diff_norms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-row L2 norm of ``a - b`` (the mining-ledger Delta-Norm).

        Contract: squared differences accumulate sequentially over
        ``d``, seeded with the ``d = 0`` term, then one sqrt per row.
        """
        rows, dim = a.shape
        if dim == 0:
            return np.zeros(rows)
        first = a[:, 0] - b[:, 0]
        acc = first * first
        for d in range(1, dim):
            diff = a[:, d] - b[:, d]
            acc = acc + diff * diff
        return np.sqrt(acc)
