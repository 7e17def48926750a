"""Tests for the federated server."""

import numpy as np
import pytest

from reference import ClientUpdate, apply_updates, from_updates
from repro.defenses.robust import MedianAggregator, MultiKrumAggregator
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


class TestGroupedCatalogueWidth:
    """Robust grouping is exact on both sides of the uint16 sort key."""

    @pytest.mark.parametrize("num_items", [65_536, 70_000])
    @pytest.mark.parametrize(
        "aggregator", [MultiKrumAggregator(0.1), MedianAggregator()]
    )
    def test_matches_per_item_reference(self, num_items, aggregator):
        rng = np.random.default_rng(num_items)
        # Ids that a wrapped 16-bit key would merge (0 with 65 536),
        # the largest ids, and a spread over the catalogue.
        edges = [0, 1, 2, 65_534, 65_535, num_items - 2, num_items - 1]
        edges += [65_536, 65_537] if num_items > 65_537 else []
        pool = np.unique(
            np.concatenate([edges, rng.integers(0, num_items, size=40)])
        )
        updates = []
        for user_id in range(48):
            ids = rng.choice(pool, size=int(rng.integers(4, 20)), replace=False)
            updates.append(
                ClientUpdate(user_id, ids, rng.normal(size=(len(ids), 4)))
            )
        reference = MFModel(num_items, 4, seed=3)
        batched = MFModel(num_items, 4, seed=3)
        initial = batched.item_embeddings[pool].copy()
        apply_updates(Server(reference, lr=0.5, aggregator=aggregator), updates)
        Server(batched, lr=0.5, aggregator=aggregator).apply_batch(
            from_updates(updates)
        )
        assert np.array_equal(batched.item_embeddings, reference.item_embeddings)
        assert (batched.item_embeddings[pool] != initial).any(axis=1).all()

    def test_out_of_range_id_is_not_wrapped(self):
        # 65 539 as a 16-bit key would be item 3 of this catalogue.
        updates = [
            ClientUpdate(user, np.array([3, 65_539]), np.ones((2, 4)))
            for user in range(3)
        ]
        server = Server(MFModel(10, 4, seed=1), lr=0.5, aggregator=MedianAggregator())
        with pytest.raises(IndexError):
            server.apply_batch(from_updates(updates))


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
