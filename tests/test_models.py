"""Tests for the MF and NCF recommender models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import build_model
from repro.models import ncf as ncf_module
from repro.models.mf import MFModel
from repro.models.ncf import NCFModel
from repro.rng import make_rng
from tests.conftest import numeric_gradient


class TestFactory:
    def test_builds_mf(self):
        assert isinstance(build_model("mf", 10, 4), MFModel)

    def test_builds_ncf(self):
        model = build_model("ncf", 10, 4, mlp_layers=(8,))
        assert isinstance(model, NCFModel)
        assert len(model.interaction_params()) == 3  # W1, b1, h

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            build_model("gnn", 10, 4)


class TestMFModel:
    def test_forward_is_dot_product(self):
        model = MFModel(20, 4, seed=0)
        rng = make_rng(1)
        user = rng.normal(size=4)
        items = model.item_embeddings[:5]
        logits, _ = model.forward(user, items)
        np.testing.assert_allclose(logits, items @ user)

    def test_no_interaction_params(self):
        assert MFModel(5, 3).interaction_params() == []

    def test_backward_exact(self):
        model = MFModel(20, 4, seed=0)
        rng = make_rng(2)
        user = rng.normal(size=4)
        items = model.item_embeddings[:3]
        dlogits = rng.normal(size=3)
        _, cache = model.forward(user, items)
        bundle = model.backward(cache, dlogits)
        np.testing.assert_allclose(bundle.items, dlogits[:, None] * user)
        np.testing.assert_allclose(
            bundle.users.sum(axis=0), dlogits @ items
        )

    def test_score_matrix_consistent_with_forward(self):
        model = MFModel(10, 4, seed=3)
        users = make_rng(4).normal(size=(3, 4))
        scores = model.score_matrix(users)
        for u in range(3):
            logits, _ = model.forward(users[u], model.item_embeddings)
            np.testing.assert_allclose(scores[u], logits)

    def test_batched_user_vectors(self):
        model = MFModel(10, 4, seed=5)
        users = make_rng(6).normal(size=(4, 4))
        items = model.item_embeddings[:4]
        logits, _ = model.forward(users, items)
        np.testing.assert_allclose(logits, np.einsum("nd,nd->n", users, items))

    def test_misaligned_batch_rejected(self):
        model = MFModel(10, 4)
        with pytest.raises(ValueError, match="align"):
            model.forward(np.zeros((3, 4)), model.item_embeddings[:5])


class TestNCFModel:
    def make_model(self):
        return NCFModel(12, 4, mlp_layers=(8, 4), seed=7)

    def test_user_item_gradients_numeric(self):
        model = self.make_model()
        rng = make_rng(8)
        user = rng.normal(size=4)
        items = model.item_embeddings[:3].copy()
        dlogits = rng.normal(size=3)

        _, cache = model.forward(user, items)
        bundle = model.backward(cache, dlogits)

        def loss_of_user(u):
            logits, _ = model.forward(np.broadcast_to(u, items.shape).copy(), items)
            return float(logits @ dlogits)

        def loss_of_items(v):
            logits, _ = model.forward(np.broadcast_to(user, v.shape).copy(), v)
            return float(logits @ dlogits)

        numeric_user = numeric_gradient(
            lambda u: loss_of_user(u), user.copy()
        )
        np.testing.assert_allclose(bundle.users.sum(axis=0), numeric_user, atol=1e-5)
        numeric_items = numeric_gradient(loss_of_items, items.copy())
        np.testing.assert_allclose(bundle.items, numeric_items, atol=1e-5)

    def test_param_gradients_flow(self):
        model = self.make_model()
        user = make_rng(9).normal(size=4)
        items = model.item_embeddings[:4]
        _, cache = model.forward(user, items)
        bundle = model.backward(cache, np.ones(4))
        assert len(bundle.params) == len(model.interaction_params())
        assert any(np.abs(g).sum() > 0 for g in bundle.params)

    def test_score_matrix_consistent(self):
        model = self.make_model()
        users = make_rng(10).normal(size=(2, 4))
        scores = model.score_matrix(users)
        assert scores.shape == (2, 12)
        logits, _ = model.forward(
            np.broadcast_to(users[0], model.item_embeddings.shape).copy(),
            model.item_embeddings,
        )
        np.testing.assert_allclose(scores[0], logits)

    def test_apply_param_update(self):
        model = self.make_model()
        before = [p.copy() for p in model.interaction_params()]
        deltas = [np.ones_like(p) for p in before]
        model.apply_param_update(deltas)
        for prev, current in zip(before, model.interaction_params()):
            np.testing.assert_allclose(current, prev + 1.0)

    def test_apply_param_update_count_mismatch(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="deltas"):
            model.apply_param_update([np.zeros(1)])


#: Towers whose input and hidden widths are multiples of four — every
#: tower the repo configures.  OpenBLAS serves an output width of
#: ``8k + 1 .. 8k + 3`` with an edge kernel whose last rows round
#: differently from the same rows inside a taller GEMM (see
#: :mod:`repro.models.mlp`).
row_stable_models = st.one_of(
    st.builds(
        lambda dim, seed: MFModel(40, dim, seed=seed),
        st.integers(1, 24),
        st.integers(0, 99),
    ),
    st.builds(
        lambda half, widths, seed: NCFModel(
            40, 2 * half, mlp_layers=tuple(4 * w for w in widths), seed=seed
        ),
        st.integers(1, 12),
        st.lists(st.integers(1, 12), max_size=3),
        st.integers(0, 99),
    ),
)


class TestRowStability:
    """A stacked call's rows equal per-segment calls, byte for byte.

    The batch engine's local step and the PIECK-UEA lockstep stack many
    clients' rows into one model call and rely on this; segments have
    two rows or more, because NumPy sends a lone row to GEMV.
    """

    @given(
        model=row_stable_models,
        lengths=st.lists(st.integers(2, 9), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_segment_calls(self, model, lengths, seed):
        rng = make_rng(seed)
        rows = sum(lengths)
        users = rng.normal(size=(rows, model.embedding_dim))
        items = rng.normal(size=(rows, model.embedding_dim))
        dlogits = rng.normal(size=rows)
        logits, cache = model.forward(users, items)
        bundle = model.backward(cache, dlogits)
        start = 0
        for length in lengths:
            seg = slice(start, start + length)
            seg_logits, seg_cache = model.forward(users[seg], items[seg])
            seg_bundle = model.backward(seg_cache, dlogits[seg])
            assert seg_logits.tobytes() == logits[seg].tobytes()
            for got, whole in (
                (seg_bundle.items, bundle.items),
                (seg_bundle.users, bundle.users),
            ):
                assert got.tobytes() == np.ascontiguousarray(whole[seg]).tobytes()
            start += length


class TestItemUpdates:
    def test_apply_item_update_accumulates_duplicates(self):
        model = MFModel(6, 3, seed=1)
        before = model.item_embeddings[2].copy()
        ids = np.array([2, 2])
        deltas = np.ones((2, 3))
        model.apply_item_update(ids, deltas)
        np.testing.assert_allclose(model.item_embeddings[2], before + 2.0)

    def test_snapshot_is_a_copy(self):
        model = MFModel(6, 3, seed=1)
        snap = model.snapshot_items()
        model.item_embeddings[0, 0] += 5.0
        assert snap[0, 0] != model.item_embeddings[0, 0]


class _CountingTable(np.ndarray):
    """Item table recording the shapes it is matrix-multiplied with."""

    def __array_finalize__(self, parent):
        self.products = getattr(parent, "products", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products.append(tuple(np.shape(x) for x in inputs))
        plain = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestNCFScoreMatrix:
    """The factorised ``score_matrix`` against the pairwise ``forward``."""

    NUM_ITEMS = 11
    TILE_USERS = 4

    @pytest.mark.parametrize("mlp_layers", [(), (8,), (8, 6, 4)])
    @pytest.mark.parametrize("num_users", [1, 3, 4, 5, 14])
    def test_matches_pairwise_forward(self, monkeypatch, mlp_layers, num_users):
        # User counts straddle the (shrunk) tile: 1, tile - 1, tile,
        # tile + 1 and 3 * tile + 2 users.
        monkeypatch.setattr(
            ncf_module, "_SCORE_TILE_PAIRS", self.TILE_USERS * self.NUM_ITEMS
        )
        model = NCFModel(self.NUM_ITEMS, 4, mlp_layers=mlp_layers, seed=11)
        users = make_rng(12).normal(size=(num_users, 4))
        scores = model.score_matrix(users)
        assert scores.shape == (num_users, self.NUM_ITEMS)
        reference = np.stack(
            [model.forward(user, model.item_embeddings)[0] for user in users]
        )
        # Four ulp of the largest logit: a logit that cancels towards
        # zero keeps the absolute rounding error of its summands.
        four_ulp = 4 * np.finfo(np.float64).eps * np.abs(reference).max()
        np.testing.assert_allclose(scores, reference, rtol=1e-12, atol=four_ulp)

    @pytest.mark.parametrize("mlp_layers", [(), (8,), (8, 6, 4)])
    def test_item_table_meets_first_layer_once_per_call(self, monkeypatch, mlp_layers):
        monkeypatch.setattr(
            ncf_module, "_SCORE_TILE_PAIRS", self.TILE_USERS * self.NUM_ITEMS
        )
        model = NCFModel(self.NUM_ITEMS, 4, mlp_layers=mlp_layers, seed=11)
        table = model.item_embeddings.view(_CountingTable)
        table.products = []
        model.item_embeddings = table
        model.score_matrix(make_rng(12).normal(size=(14, 4)))
        # One product of the item half of the first layer with the whole
        # table, however many users and tiles the call covers.
        width = mlp_layers[0] if mlp_layers else 1
        assert [sorted(shapes) for shapes in table.products] == [
            sorted([(width, 4), (4, self.NUM_ITEMS)])
        ]

    def test_empty_user_block(self):
        model = NCFModel(self.NUM_ITEMS, 4, mlp_layers=(8, 4), seed=11)
        assert model.score_matrix(np.empty((0, 4))).shape == (0, self.NUM_ITEMS)

    @pytest.mark.parametrize("mlp_layers", [(), (8,), (8, 6, 4)])
    @pytest.mark.parametrize("num_users", [1, 5])
    def test_one_item_catalogue(self, mlp_layers, num_users):
        # One item sends lone pair rows through every layer product.
        model = NCFModel(1, 4, mlp_layers=mlp_layers, seed=11)
        users = make_rng(12).normal(size=(num_users, 4))
        scores = model.score_matrix(users)
        assert scores.shape == (num_users, 1)
        reference = np.stack(
            [model.forward(user, model.item_embeddings)[0] for user in users]
        )
        four_ulp = 4 * np.finfo(np.float64).eps * np.abs(reference).max()
        np.testing.assert_allclose(scores, reference, rtol=1e-12, atol=four_ulp)

