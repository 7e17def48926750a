"""Tests for the per-client reference benign client."""

import numpy as np
import pytest

from reference import BenignClient
from repro.config import TrainConfig
from repro.models.mf import MFModel


def make_client(regularizer=None, seed=0):
    return BenignClient(
        user_id=3,
        positive_items=np.array([1, 4, 7]),
        num_items=20,
        embedding_dim=6,
        seed=seed,
        regularizer=regularizer,
    )


class TestBCEStep:
    def test_update_aligned_and_scoped(self):
        client = make_client()
        model = MFModel(20, 6, seed=1)
        update = client.participate(model, TrainConfig(negative_ratio=1), 0)
        assert len(update.item_ids) == len(update.item_grads) == 6
        assert set(np.array([1, 4, 7])).issubset(set(update.item_ids.tolist()))
        assert not update.malicious
        assert update.param_grads == []

    def test_user_embedding_updated_locally(self):
        client = make_client()
        model = MFModel(20, 6, seed=1)
        before = client.user_embedding.copy()
        client.participate(model, TrainConfig(lr=0.5), 0)
        assert not np.allclose(before, client.user_embedding)

    def test_gradients_point_downhill(self):
        # Positive items should receive gradients that *raise* their
        # score after the server's v <- v - lr * g step.
        client = make_client()
        model = MFModel(20, 6, seed=2)
        update = client.participate(model, TrainConfig(), 0)
        user = client.user_embedding
        for item_id, grad in zip(update.item_ids, update.item_grads):
            if item_id in (1, 4, 7):
                # Moving against the gradient increases the logit.
                assert np.dot(-grad, user) >= -1e-9 or np.allclose(grad, 0)

    def test_fresh_negatives_each_round(self):
        client = make_client()
        model = MFModel(20, 6, seed=1)
        u0 = client.participate(model, TrainConfig(), 0)
        u1 = client.participate(model, TrainConfig(), 1)
        assert not np.array_equal(u0.item_ids, u1.item_ids)

    def test_deterministic_given_round(self):
        a = make_client()
        b = make_client()
        model = MFModel(20, 6, seed=1)
        ua = a.participate(model, TrainConfig(), 5)
        ub = b.participate(model, TrainConfig(), 5)
        np.testing.assert_array_equal(ua.item_ids, ub.item_ids)
        np.testing.assert_allclose(ua.item_grads, ub.item_grads)


class TestBPRStep:
    def test_bpr_update_valid(self):
        client = make_client()
        model = MFModel(20, 6, seed=1)
        update = client.participate(model, TrainConfig(loss="bpr"), 0)
        assert len(np.unique(update.item_ids)) == len(update.item_ids)
        assert len(update.item_ids) >= 3

    def test_bpr_changes_user_embedding(self):
        client = make_client()
        model = MFModel(20, 6, seed=1)
        before = client.user_embedding.copy()
        client.participate(model, TrainConfig(loss="bpr", lr=0.5), 0)
        assert not np.allclose(before, client.user_embedding)


class TestClientLr:
    def test_dynamic_rate_in_range(self):
        client = make_client()
        cfg = TrainConfig(client_lr_range=(1e-2, 1.0))
        rate = client._client_lr(cfg)
        assert 1e-2 <= rate <= 1.0

    def test_dynamic_rate_fixed_per_client(self):
        client = make_client()
        cfg = TrainConfig(client_lr_range=(1e-2, 1.0))
        assert client._client_lr(cfg) == client._client_lr(cfg)

    def test_dynamic_rates_differ_across_clients(self):
        cfg = TrainConfig(client_lr_range=(1e-3, 1.0))
        rates = {
            BenignClient(i, np.array([0]), 5, 4, seed=0)._client_lr(cfg)
            for i in range(8)
        }
        assert len(rates) > 1

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="client_lr_range"):
            TrainConfig(client_lr_range=(1.0, 0.5))


class _SpyRegularizer:
    def __init__(self):
        self.observed = 0

    def observe(self, item_matrix):
        self.observed += 1

    def item_grad_terms(self, item_ids, item_matrix):
        return np.full((len(item_ids), item_matrix.shape[1]), 0.25)

    def user_grad_term(self, user_emb, item_matrix):
        return np.full_like(user_emb, 0.5)


class TestRegularizerHook:
    def test_hooks_invoked_and_grads_added(self):
        spy = _SpyRegularizer()
        with_reg = make_client(regularizer=spy)
        without = make_client()
        model = MFModel(20, 6, seed=1)
        u_reg = with_reg.participate(model, TrainConfig(lr=0.0), 0)
        u_plain = without.participate(model, TrainConfig(lr=0.0), 0)
        assert spy.observed == 1
        np.testing.assert_allclose(u_reg.item_grads - u_plain.item_grads, 0.25)

    def test_user_grad_term_applied_locally(self):
        spy = _SpyRegularizer()
        with_reg = make_client(regularizer=spy)
        without = make_client()
        model = MFModel(20, 6, seed=1)
        with_reg.participate(model, TrainConfig(lr=1.0), 0)
        without.participate(model, TrainConfig(lr=1.0), 0)
        diff = without.user_embedding - with_reg.user_embedding
        np.testing.assert_allclose(diff, 0.5, atol=1e-12)
