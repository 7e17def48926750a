"""DL-FRS: neural collaborative filtering with a learnable MLP tower.

``logit(u, v) = h . relu(W_L ... relu(W_1 (u ++ v) + b_1) ... + b_L)``
(Eq. 1). The MLP parameters are part of the shared global model and
are trained collaboratively — and therefore poisonable, which is what
makes DL-FRS the softer target in Table III.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.models.base import (
    BatchStepResult,
    GradientBundle,
    RecommenderModel,
    segment_starts,
    segment_sums,
)
from repro.models.losses import bce_grad_segmented
from repro.models.mlp import MLPTower
from repro.rng import spawn

__all__ = ["NCFModel"]

#: Pair rows (user x item) per tile of :meth:`NCFModel.score_matrix`.
#: Tile boundaries are part of the scores: OpenBLAS rounds the last
#: pairs of a call (``n mod 4`` in the projection's GEMV, and the end of
#: each thread's share of a threaded call) with other kernels.  Another
#: value moves scores in the last ulp at 222 items (the ml-1m preset of
#: Table III), so this stays the value every score was recorded with.
#: Smaller tiles would be only a little faster: at 2000 users x 3000
#: items, tower (32, 16), 2-core VM, interleaved medians, 16k / 32k /
#: 64k / 128k / 400k rows took 206 / 197 / 204 / 232 / 264 ms.
_SCORE_TILE_PAIRS = 65536


class NCFModel(RecommenderModel):
    """NCF global model: item embedding table + MLP tower parameters."""

    kind = "ncf"

    def __init__(
        self,
        num_items: int,
        embedding_dim: int,
        *,
        mlp_layers: tuple[int, ...] = (32, 16),
        init_scale: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(num_items, embedding_dim)
        rng = spawn(seed, "ncf-init")
        self.item_embeddings = rng.normal(
            scale=init_scale, size=(num_items, embedding_dim)
        )
        self.tower = MLPTower(2 * embedding_dim, mlp_layers, rng, scale=init_scale)

    def interaction_params(self) -> list[np.ndarray]:
        return self.tower.param_list()

    def forward(
        self, user_vecs: np.ndarray, item_vecs: np.ndarray
    ) -> tuple[np.ndarray, Any]:
        users = self._pair_user_vecs(user_vecs, item_vecs)
        x = np.concatenate([users, item_vecs], axis=1)
        logits, cache = self.tower.forward(x)
        return logits, cache

    def backward(self, cache: Any, dlogits: np.ndarray) -> GradientBundle:
        dx, param_grads = self.tower.backward(cache, dlogits)
        d = self.embedding_dim
        return GradientBundle(users=dx[:, :d], items=dx[:, d:], params=param_grads)

    def batch_local_step(
        self,
        user_vecs: np.ndarray,
        item_vecs: np.ndarray,
        labels: np.ndarray,
        lengths: np.ndarray,
    ) -> BatchStepResult:
        """Vectorised local step resolving tower gradients per client.

        Same contract as the base hook; the tower's forward and input
        gradient run once over all clients' stacked rows, while the
        per-parameter reductions run on each client's exact row segment
        (see :meth:`MLPTower.backward_segmented`).  The tower is
        row-stable (``tests/test_models.py::TestRowStability``), so every
        uploaded gradient is bit-identical to the per-client loop — for
        segments of two or more rows, which every protocol batch has
        (``positives * (1 + q)`` rows, ``q >= 1``): a lone row takes the
        GEMV kernel and can differ in the last ulp.
        """
        dim = self.embedding_dim
        logits, cache = self.forward(np.repeat(user_vecs, lengths, axis=0), item_vecs)
        dlogits = bce_grad_segmented(logits, labels, lengths)
        starts = segment_starts(lengths)
        dx, param_stacks = self.tower.backward_segmented(
            cache, dlogits, starts, lengths
        )
        user_grads = segment_sums(dx[:, :dim], lengths, dim)
        item_grads = dx[:, dim:]
        return BatchStepResult(
            user_grads=user_grads, item_grads=item_grads, param_grads=param_stacks
        )

    def score_matrix(self, user_matrix: np.ndarray) -> np.ndarray:
        """Logits of every (user, item) pair without building the pairs.

        The first affine map of the tower acts on ``[u ; v]``, so it
        splits into ``u @ W[:d]`` (once per user) plus ``v @ W[d:] + b``
        (once per item); only their broadcast sum, the ReLU and the
        remaining layers are per-pair work.  That work runs over tiles
        of whole users of about :data:`_SCORE_TILE_PAIRS` pair rows,
        one GEMM per layer per tile, in buffers allocated once per call.
        Activations are held feature-major, ``(width, users, items)``,
        so every broadcast runs along the long item axis.  A tile holds
        ``num_items`` pair rows or more, so no catalogue of two or more
        items sends a lone row to the GEMV kernel
        :meth:`batch_local_step` warns about.

        The sum ``u @ W[:d] + (v @ W[d:] + b)`` rounds differently from
        ``[u ; v] @ W + b``, and BLAS picks its kernel by operand shape:
        scores agree with :meth:`forward` to the last ulp or two, not bit
        for bit.  User blocking and the tile size can move the last ulp
        too (see :data:`_SCORE_TILE_PAIRS`): blocks of 1 to 256 users
        differed from one call by at most 2.1e-17 on logits below 0.05,
        at 512 x 3000 and 300 x 222.  The ReLUs move nothing: NumPy's
        ``maximum`` gives the same bytes against a zero array as against
        the scalar ``0.0``, for signed zeros, NaN payloads and
        subnormals too (``tests/test_eval_properties.py``).
        """
        dim = self.embedding_dim
        layers = self.tower.layers
        if layers:
            weight, bias = layers[0].weight, layers[0].bias
        else:
            weight, bias = self.tower.projection[:, None], np.zeros(1)
        num_users = user_matrix.shape[0]
        user_part = weight[:dim].T @ user_matrix.T
        item_part = weight[dim:].T @ self.item_embeddings.T + bias[:, None]
        if not layers:
            return user_part.T + item_part

        scores = np.empty((num_users, self.num_items))
        step = max(1, _SCORE_TILE_PAIRS // self.num_items)
        tile_users = min(step, num_users)
        first = np.empty((len(bias), tile_users, self.num_items))
        later = [
            np.empty((len(layer.bias), tile_users * self.num_items))
            for layer in layers[1:]
        ]
        # The ReLUs' zero operand.  Against the scalar 0.0 NumPy runs
        # ``maximum`` through a loop that is not vectorised, about 2.3x
        # slower than against an array, for the same bytes.
        zeros = np.zeros(tile_users * self.num_items)
        for lo in range(0, num_users, step):
            hi = min(lo + step, num_users)
            pairs = (hi - lo) * self.num_items
            act = first[:, : hi - lo]
            np.add(user_part[:, lo:hi, None], item_part[:, None, :], out=act)
            np.maximum(act, zeros[:pairs].reshape(hi - lo, -1), out=act)
            act = act.reshape(len(act), -1)
            for layer, buffer in zip(layers[1:], later):
                out = buffer[:, :pairs]
                np.matmul(layer.weight.T, act, out=out)
                out += layer.bias[:, None]
                act = np.maximum(out, zeros[:pairs], out=out)
            np.matmul(self.tower.projection, act, out=scores[lo:hi].reshape(-1))
        return scores
