"""Tests for the federated server."""

import numpy as np
import pytest

from reference import ClientUpdate, from_updates
from repro.federated.server import Server
from repro.models.mf import MFModel
from repro.models.ncf import NCFModel


class TestSampling:
    def test_sample_size(self):
        server = Server(MFModel(10, 4), lr=1.0, seed=0)
        assert len(server.sample_users(100, 32, 0)) == 32

    def test_sample_capped_at_population(self):
        server = Server(MFModel(10, 4), lr=1.0, seed=0)
        sampled = server.sample_users(8, 32, 0)
        assert len(sampled) == 8

    def test_no_replacement(self):
        server = Server(MFModel(10, 4), lr=1.0, seed=0)
        sampled = server.sample_users(50, 40, 3)
        assert len(np.unique(sampled)) == 40

    def test_deterministic_per_round(self):
        a = Server(MFModel(10, 4), lr=1.0, seed=5)
        b = Server(MFModel(10, 4), lr=1.0, seed=5)
        np.testing.assert_array_equal(
            a.sample_users(100, 10, 7), b.sample_users(100, 10, 7)
        )

    def test_rounds_differ(self):
        server = Server(MFModel(10, 4), lr=1.0, seed=5)
        assert not np.array_equal(
            server.sample_users(100, 10, 0), server.sample_users(100, 10, 1)
        )


class TestItemUpdates:
    def test_sum_aggregation_applied(self):
        model = MFModel(10, 4, seed=1)
        server = Server(model, lr=0.5)
        before = model.item_embeddings[3].copy()
        updates = [
            ClientUpdate(0, np.array([3]), np.ones((1, 4))),
            ClientUpdate(1, np.array([3]), np.ones((1, 4))),
        ]
        server.apply_batch(from_updates(updates))
        np.testing.assert_allclose(model.item_embeddings[3], before - 0.5 * 2.0)

    def test_untouched_items_unchanged(self):
        model = MFModel(10, 4, seed=1)
        before = model.item_embeddings.copy()
        server = Server(model, lr=0.5)
        server.apply_batch(
            from_updates([ClientUpdate(0, np.array([3]), np.ones((1, 4)))])
        )
        unchanged = np.delete(np.arange(10), 3)
        np.testing.assert_array_equal(
            model.item_embeddings[unchanged], before[unchanged]
        )

    def test_empty_updates_noop(self):
        model = MFModel(10, 4, seed=1)
        before = model.item_embeddings.copy()
        Server(model, lr=0.5).apply_batch(from_updates([]))
        np.testing.assert_array_equal(model.item_embeddings, before)

    def test_update_filter_applied(self):
        model = MFModel(10, 4, seed=1)
        calls = []

        class SpyFilter:
            def filter_batch(self, batch):
                calls.append(batch.num_clients)
                return batch.select_clients(np.zeros(batch.num_clients, dtype=bool))

        server = Server(model, lr=0.5, update_filter=SpyFilter())
        before = model.item_embeddings.copy()
        server.apply_batch(
            from_updates([ClientUpdate(0, np.array([1]), np.ones((1, 4)))])
        )
        assert calls == [1]
        np.testing.assert_array_equal(model.item_embeddings, before)

    def test_filter_without_filter_batch_rejected(self):
        def per_update_filter(updates):
            return updates

        with pytest.raises(TypeError, match="filter_batch"):
            Server(MFModel(10, 4), lr=0.5, update_filter=per_update_filter)


class TestParamUpdates:
    def test_ncf_params_updated(self):
        model = NCFModel(6, 4, mlp_layers=(8,), seed=2)
        server = Server(model, lr=0.1)
        params_before = [p.copy() for p in model.interaction_params()]
        grads = [np.ones_like(p) for p in params_before]
        update = ClientUpdate(0, np.array([0]), np.zeros((1, 4)), param_grads=grads)
        server.apply_batch(from_updates([update]))
        for before, current in zip(params_before, model.interaction_params()):
            np.testing.assert_allclose(current, before - 0.1)

    def test_clients_without_param_grads_skipped(self):
        model = NCFModel(6, 4, mlp_layers=(8,), seed=2)
        server = Server(model, lr=0.1)
        params_before = [p.copy() for p in model.interaction_params()]
        server.apply_batch(
            from_updates([ClientUpdate(0, np.array([0]), np.zeros((1, 4)))])
        )
        for before, current in zip(params_before, model.interaction_params()):
            np.testing.assert_array_equal(current, before)

    def test_mixed_contributors(self):
        model = NCFModel(6, 4, mlp_layers=(8,), seed=2)
        server = Server(model, lr=1.0)
        params_before = [p.copy() for p in model.interaction_params()]
        grads = [np.ones_like(p) for p in params_before]
        updates = [
            ClientUpdate(0, np.array([0]), np.zeros((1, 4)), param_grads=grads),
            ClientUpdate(1, np.array([1]), np.zeros((1, 4))),  # no params
            ClientUpdate(2, np.array([2]), np.zeros((1, 4)), param_grads=grads),
        ]
        server.apply_batch(from_updates(updates))
        for before, current in zip(params_before, model.interaction_params()):
            np.testing.assert_allclose(current, before - 2.0)
