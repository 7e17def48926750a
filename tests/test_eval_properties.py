"""What the array-operand ReLU relies on: ``maximum`` against a zero array
gives the bytes of ``maximum`` against the scalar ``0.0``.

NumPy runs ``np.maximum(x, 0.0)`` through a loop that is not vectorised
and ``np.maximum(x, zeros)`` through its SIMD loop, so the NCF tower's
ReLUs (:meth:`NCFModel.score_matrix`, :meth:`MLPTower.forward`) take a
zero array.  These properties check that the two loops agree byte for
byte, on the special values first and then through both ReLU call
sites, against oracles that keep the scalar operand.  The CI
``numpy-compat`` legs run this file, since the SIMD loops differ
between NumPy versions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.ncf as ncf_module
from repro.models.mlp import MLPTower
from repro.models.ncf import NCFModel

SPECIALS = [
    0.0,
    -0.0,
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    -2.2250738585072009e-308,
    np.finfo(np.float64).tiny,
    -np.finfo(np.float64).tiny,
    1.0,
    -1.0,
]

#: Any float64 bit pattern: every NaN payload (quiet, signalling, either
#: sign), every subnormal, both zeros.
any_bits = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)
doubles = st.one_of(st.sampled_from(SPECIALS), any_bits)

#: Widths that are multiples of four and widths that are not.
TOWERS = [(32, 16), (16, 8), (8,), (8, 6, 4), (12,), (20, 12), (6,), (7, 5)]


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).view(np.uint64).tobytes()


class TestMaximumOperand:
    @pytest.mark.parametrize("value", SPECIALS, ids=repr)
    def test_special_values(self, value):
        # Long enough for the SIMD body and a scalar tail.
        x = np.full(19, value)
        assert _bits(np.maximum(x, np.zeros(19))) == _bits(np.maximum(x, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(doubles, min_size=0, max_size=70))
    def test_contiguous(self, values):
        x = np.array(values)
        assert _bits(np.maximum(x, np.zeros(len(x)))) == _bits(np.maximum(x, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(doubles, min_size=1, max_size=60),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_in_place_on_a_tile_slice(self, values, width, spare):
        # The score loop's layouts: a (width, users, items) buffer cut to
        # the tile's users, and a (width, pairs) buffer cut to its pairs,
        # each against a zero row broadcast over the width axis.
        items, users = len(values), 3
        base = np.resize(np.array(values), (width, users + spare, items))
        scalar = base.copy()
        np.maximum(scalar[:, :users], 0.0, out=scalar[:, :users])
        array = base.copy()
        zeros = np.zeros((users + spare) * items)
        view = array[:, :users]
        np.maximum(view, zeros[: users * items].reshape(users, -1), out=view)
        assert _bits(array) == _bits(scalar)

        pairs = users * items
        flat = base.reshape(width, -1)
        scalar = flat.copy()
        np.maximum(scalar[:, :pairs], 0.0, out=scalar[:, :pairs])
        array = flat.copy()
        view = array[:, :pairs]
        np.maximum(view, zeros[:pairs], out=view)
        assert _bits(array) == _bits(scalar)


def _scalar_relu_scores(model: NCFModel, user_matrix: np.ndarray) -> np.ndarray:
    """:meth:`NCFModel.score_matrix` with both ReLUs on the scalar 0.0."""
    dim, layers = model.embedding_dim, model.tower.layers
    weight, bias = layers[0].weight, layers[0].bias
    num_users = user_matrix.shape[0]
    user_part = weight[:dim].T @ user_matrix.T
    item_part = weight[dim:].T @ model.item_embeddings.T + bias[:, None]
    scores = np.empty((num_users, model.num_items))
    step = max(1, ncf_module._SCORE_TILE_PAIRS // model.num_items)
    tile_users = min(step, num_users)
    first = np.empty((len(bias), tile_users, model.num_items))
    later = [
        np.empty((len(layer.bias), tile_users * model.num_items))
        for layer in layers[1:]
    ]
    for lo in range(0, num_users, step):
        hi = min(lo + step, num_users)
        act = first[:, : hi - lo]
        np.add(user_part[:, lo:hi, None], item_part[:, None, :], out=act)
        np.maximum(act, 0.0, out=act)
        act = act.reshape(len(act), -1)
        for layer, buffer in zip(layers[1:], later):
            out = buffer[:, : act.shape[1]]
            np.matmul(layer.weight.T, act, out=out)
            out += layer.bias[:, None]
            act = np.maximum(out, 0.0, out=out)
        np.matmul(model.tower.projection, act, out=scores[lo:hi].reshape(-1))
    return scores


class TestScoreMatrixReLU:
    @settings(max_examples=60, deadline=None)
    @given(
        tower=st.sampled_from(TOWERS),
        num_users=st.integers(1, 14),
        num_items=st.integers(1, 40),
        tile=st.sampled_from(
            ["one pair", "items - 1", "items + 1", "whole block", "default"]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_match_the_scalar_relu_at_any_tile(
        self, tower, num_users, num_items, tile, seed
    ):
        tile_pairs = {
            "one pair": 1,
            "items - 1": max(num_items - 1, 1),
            "items + 1": num_items + 1,
            "whole block": num_users * num_items + 1,
            "default": ncf_module._SCORE_TILE_PAIRS,
        }[tile]
        model = NCFModel(num_items, 4, mlp_layers=tower, seed=seed)
        users = np.random.default_rng(seed + 1).normal(size=(num_users, 4))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncf_module, "_SCORE_TILE_PAIRS", tile_pairs)
            assert _bits(model.score_matrix(users)) == _bits(
                _scalar_relu_scores(model, users)
            )


class TestTowerForwardReLU:
    @settings(max_examples=60, deadline=None)
    @given(
        tower=st.sampled_from(TOWERS),
        rows=st.integers(0, 50),
        seed=st.integers(0, 2**16),
    )
    def test_forward_matches_the_scalar_relu(self, tower, rows, seed):
        rng = np.random.default_rng(seed)
        mlp = MLPTower(8, tower, rng)
        x = rng.normal(size=(rows, 8))
        logits, cache = mlp.forward(x)
        expected = [x]
        for layer in mlp.layers:
            expected.append(np.maximum(layer.forward(expected[-1]), 0.0))
        assert [_bits(a) for a in cache] == [_bits(a) for a in expected]
        assert _bits(logits) == _bits(
            np.einsum("nd,d->n", expected[-1], mlp.projection)
        )
