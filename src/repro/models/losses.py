"""Loss functions with analytic gradients w.r.t. model logits.

All models output raw *logits*; predicted scores are ``sigmoid(logit)``
so that scores fall in [0, 1] as the paper's BCE formulation requires
(Eq. 2).  The gradients below are taken over a ragged stack of client
batches at once; the scalar per-client losses they equal bit for bit
are the oracles in ``tests/reference/scalar.py``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

__all__ = ["sigmoid", "bce_grad_segmented", "bpr_grad_segmented"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Preserves floating input dtypes (reduced-precision logits produce
    reduced-precision probabilities, keeping the whole gradient path —
    and therefore client uploads — at the model's own precision);
    anything else is computed in float64.
    """
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_grad_segmented(
    logits: np.ndarray, labels: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """BCE logit gradients for a ragged row-stack of per-client batches.

    ``logits``/``labels`` are flat ``(total_rows,)`` arrays where
    client ``k`` owns a contiguous segment of ``lengths[k]`` rows.
    Every row receives ``(sigmoid(logit) - label) / lengths[k]`` — the
    gradient of that client's mean binary cross-entropy (Eq. 2), and
    the same value the scalar BCE oracle in ``tests/reference/``
    produces for its batch alone, because dividing by the identical
    float64 divisor is the identical IEEE operation.  Returns the flat
    gradient aligned with ``logits``.
    """
    probs = sigmoid(logits)
    # Exactly-cast 0/1 labels keep reduced-precision logit gradients at
    # their own precision (int or float64 arrays would promote float32
    # to float64); the per-segment division is the dispatched
    # segment_div kernel, whose divisors are cast the same exact way.
    return kernels.segment_div(probs - labels.astype(probs.dtype), lengths)


def bpr_grad_segmented(
    pos_logits: np.ndarray, neg_logits: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """BPR logit gradients for ragged row-stacks of per-client pairs.

    ``pos_logits``/``neg_logits`` are flat ``(total_pairs,)`` arrays in
    which client ``k`` owns a contiguous segment of ``lengths[k]``
    paired rows.  Each pair receives ``(sigmoid(diff) - 1) /
    lengths[k]`` — the gradient of the mean BPR loss ``-log
    sigmoid(s_pos - s_neg)`` (supplementary E), and the same value the
    scalar BPR oracle in ``tests/reference/`` computes for that
    client's pairs alone, because dividing by the identical float64
    divisor is the identical IEEE operation.  Returns
    ``(d/d pos_logits, d/d neg_logits)`` aligned with the inputs.
    """
    diff = pos_logits - neg_logits
    probs = sigmoid(diff)
    # The per-segment division is the dispatched segment_div kernel,
    # which casts the divisors to the gradient dtype for the same
    # dtype-preservation reason as in :func:`bce_grad_segmented`.
    ddiff = kernels.segment_div(probs - 1.0, lengths)
    return ddiff, -ddiff
