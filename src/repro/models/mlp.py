"""Minimal MLP substrate with exact forward/backward in NumPy.

This is the learnable-interaction-function building block of DL-FRS
(Eq. 1 in the paper): a stack of ReLU layers followed by a projection
vector ``h``. Gradients are derived by hand and checked against
numerical differentiation in the test suite.

:meth:`MLPTower.forward` and the input gradient are row-stable: a row
gets the same bytes whatever rows share the call, given two or more
rows (a lone row takes NumPy's GEMV path) and input and hidden widths
that are multiples of four (OpenBLAS's kernels for output widths
``8k + 1 .. 8k + 3`` round a block's last rows differently).  So whole
rounds of clients share one call; :meth:`MLPTower.backward_segmented`
resolves the parameter gradients per client segment.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Linear", "MLPTower"]


class Linear:
    """Fully-connected layer ``z = x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 0.1):
        self.weight = rng.normal(scale=scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a batch ``x`` of shape (n, in_dim)."""
        return x @ self.weight + self.bias

    def input_grad(self, dz: np.ndarray) -> np.ndarray:
        """``dz @ W.T`` with a contiguous ``W.T``: OpenBLAS serves a
        transposed operand with few rows from another kernel than the
        same rows inside a taller stack."""
        return dz @ np.ascontiguousarray(self.weight.T)


class MLPTower:
    """ReLU MLP stack with a final scalar projection (Eq. 1).

    ``logit = h . relu(W_L ... relu(W_1 x + b_1) ... + b_L)``

    Parameters are exposed as a flat list (``param_list``) in a stable
    order so that federated aggregation can treat them uniformly.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...],
        rng: np.random.Generator,
        scale: float = 0.1,
    ):
        self.layers: list[Linear] = []
        prev = input_dim
        for width in hidden_dims:
            self.layers.append(Linear(prev, width, rng, scale))
            prev = width
        self.projection = rng.normal(scale=scale, size=prev)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------

    def param_list(self) -> list[np.ndarray]:
        """All learnable arrays: W_1, b_1, ..., W_L, b_L, h (live views)."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        params.append(self.projection)
        return params

    def set_params(self, params: list[np.ndarray]) -> None:
        """Overwrite parameters in place from a matching flat list."""
        expected = self.param_list()
        if len(params) != len(expected):
            raise ValueError(
                f"expected {len(expected)} parameter arrays, got {len(params)}"
            )
        for current, new in zip(expected, params):
            if current.shape != new.shape:
                raise ValueError(
                    f"parameter shape mismatch: {current.shape} vs {new.shape}"
                )
            current[...] = new

    def zero_like_params(self) -> list[np.ndarray]:
        """Zero-filled arrays matching ``param_list`` shapes."""
        return [np.zeros_like(p) for p in self.param_list()]

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Compute logits for a batch ``x`` of shape (n, input_dim).

        Returns ``(logits, cache)`` where ``cache`` holds the
        activations needed by :meth:`backward`.
        """
        cache = [x]
        current = x
        for layer in self.layers:
            current = layer.forward(current)
            # A zero row, not the scalar 0.0: same bytes, vectorised loop.
            np.maximum(current, np.zeros_like(layer.bias), out=current)
            cache.append(current)
        # Row-wise, not a GEMV: a GEMV rounds its last ``n mod 4`` rows
        # differently, so a logit would depend on the rows beside it.
        logits = np.einsum("nd,d->n", cache[-1], self.projection)
        return logits, cache

    def backward(
        self, cache: list[np.ndarray], dlogits: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(dx, param_grads)`` from logit gradients, params ordered like
        :meth:`param_list`: the one-segment :meth:`backward_segmented`."""
        dx, stacks = self.backward_segmented(cache, dlogits, [0], [len(dlogits)])
        return dx, [stack[0] for stack in stacks]

    def backward_segmented(
        self,
        cache: list[np.ndarray],
        dlogits: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Backward pass resolving parameter gradients per client segment.

        ``cache``/``dlogits`` come from one flattened :meth:`forward`
        over all clients' stacked rows; segment ``k`` owns rows
        ``starts[k] : starts[k] + lengths[k]``.  The row-wise parts of
        the backward pass (ReLU masking, ``dz @ W.T``) run once over the
        whole stack; only the per-parameter reductions (``x.T @ dz``,
        ``dz.sum(axis=0)``) run per segment, on each segment's exact
        rows, making every per-client gradient bit-identical to a call
        on that client's rows alone.

        Returns ``(dx, param_stacks)`` where ``dx`` covers all rows and
        ``param_stacks`` is ordered like :meth:`param_list` with one
        leading ``(num_segments,)`` axis.
        """
        segs = [slice(int(s), int(s) + int(n)) for s, n in zip(starts, lengths)]
        final_act = cache[-1]
        dproj = np.empty(
            (len(segs), len(self.projection)),
            dtype=np.result_type(final_act, dlogits),
        )
        for k, seg in enumerate(segs):
            dproj[k] = final_act[seg].T @ dlogits[seg]
        dact = np.outer(dlogits, self.projection)

        param_stacks = [dproj]
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            act_in = cache[index]
            dz = dact * (cache[index + 1] > 0.0)
            dtype = np.result_type(act_in, dz)
            dw = np.empty((len(segs),) + layer.weight.shape, dtype=dtype)
            db = np.empty((len(segs),) + layer.bias.shape, dtype=dtype)
            for k, seg in enumerate(segs):
                dw[k] = act_in[seg].T @ dz[seg]
                db[k] = dz[seg].sum(axis=0)
            dact = layer.input_grad(dz)
            param_stacks[:0] = [dw, db]
        return dact, param_stacks
