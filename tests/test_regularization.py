"""Tests for the client-side regularization defense (Section V-B)."""

import numpy as np
import pytest

from repro.config import DefenseConfig, replace
from repro.defenses.regularization import (
    ClientRegularizer,
    exponential_rank_weights,
    re1_value,
    re2_value,
)
from repro.federated.simulation import FederatedSimulation
from repro.rng import make_rng
from tests.conftest import numeric_gradient


def ready_regularizer(num_items=12, dim=4, beta=0.5, gamma=0.5, num_popular=3, seed=0):
    """A regularizer fed enough snapshots that its miner is ready."""
    reg = ClientRegularizer(
        num_items,
        DefenseConfig(
            name="regularization", beta=beta, gamma=gamma,
            num_popular=num_popular, mining_rounds=2,
        ),
    )
    rng = make_rng(seed)
    matrix = rng.normal(size=(num_items, dim))
    hot = np.arange(num_popular)
    for _ in range(3):
        matrix = matrix.copy()
        matrix[hot] += rng.normal(scale=2.0, size=(num_popular, dim))
        reg.observe(matrix)
    return reg, matrix, hot


class TestWeights:
    def test_normalised(self):
        weights = exponential_rank_weights(5)
        assert weights.sum() == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        weights = exponential_rank_weights(6)
        assert (np.diff(weights) < 0).all()

    def test_exponential_shape(self):
        weights = exponential_rank_weights(4)
        ratios = weights[1:] / weights[:-1]
        np.testing.assert_allclose(ratios, np.exp(-1.0))


class TestBeforeReady:
    def test_zero_grads_before_mining_completes(self):
        reg = ClientRegularizer(10, DefenseConfig(name="regularization"))
        reg.observe(np.zeros((10, 4)))
        item_grads = reg.item_grad_terms(np.array([1, 2]), np.zeros((10, 4)))
        np.testing.assert_array_equal(item_grads, 0.0)
        user_grad = reg.user_grad_term(np.ones(4), np.zeros((10, 4)))
        np.testing.assert_array_equal(user_grad, 0.0)


class TestRe1:
    def test_item_grads_increase_re1(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8, 9])
        grads = reg.item_grad_terms(batch, matrix)
        # Simulated server step: v <- v - grad (lr=1); Re1 must increase.
        before = re1_value(matrix[batch], matrix[popular], weights)
        moved = matrix.copy()
        moved[batch] -= grads
        after = re1_value(moved[batch], moved[popular], weights)
        assert after > before

    def test_popular_items_in_batch_get_zero_grad(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.popular_items()
        batch = np.array([int(popular[0]), 9])
        grads = reg.item_grad_terms(batch, matrix)
        np.testing.assert_array_equal(grads[0], 0.0)
        assert np.abs(grads[1]).sum() > 0

    def test_grad_matches_numeric(self):
        reg, matrix, hot = ready_regularizer(beta=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8])

        def negative_re1_of_item(vec):
            vecs = matrix[batch].copy()
            vecs[0] = vec
            return -re1_value(vecs, matrix[popular], weights)

        grads = reg.item_grad_terms(batch, matrix)
        numeric = numeric_gradient(negative_re1_of_item, matrix[batch[0]].copy())
        np.testing.assert_allclose(grads[0], numeric, atol=1e-6)

    def test_beta_zero_disables(self):
        reg, matrix, _ = ready_regularizer(beta=0.0)
        grads = reg.item_grad_terms(np.array([7]), matrix)
        np.testing.assert_array_equal(grads, 0.0)


class TestRe2:
    def test_user_grad_increases_re2(self):
        reg, matrix, hot = ready_regularizer(gamma=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        user = make_rng(3).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        before = re2_value(matrix[popular], user, weights)
        after = re2_value(matrix[popular], user - grad, weights)
        assert after > before

    def test_grad_matches_numeric(self):
        reg, matrix, _ = ready_regularizer(gamma=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        user = make_rng(4).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        numeric = numeric_gradient(
            lambda u: -re2_value(matrix[popular], u, weights), user.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_gamma_zero_disables(self):
        reg, matrix, _ = ready_regularizer(gamma=0.0)
        grad = reg.user_grad_term(np.ones(4), matrix)
        np.testing.assert_array_equal(grad, 0.0)


class TestValues:
    def test_re1_empty_unpopular(self):
        weights = exponential_rank_weights(2)
        assert re1_value(np.zeros((0, 3)), np.ones((2, 3)), weights) == 0.0

    def test_re2_non_negative(self):
        rng = make_rng(5)
        popular = rng.normal(size=(3, 4))
        weights = exponential_rank_weights(3)
        assert re2_value(popular, rng.normal(size=4), weights) >= 0.0


class TestTowerTerm:
    def test_mf_returns_empty(self):
        from repro.models.mf import MFModel

        reg, matrix, _ = ready_regularizer()
        assert reg.param_grad_terms(MFModel(12, 4, seed=0), np.array([1])) == []

    def test_zero_before_ready(self):
        from repro.models.ncf import NCFModel

        reg = ClientRegularizer(12, DefenseConfig(name="regularization"))
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([1, 2]))
        assert all((g == 0).all() for g in grads)

    def test_confined_to_user_slot_of_first_layer(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        model.item_embeddings[...] = matrix
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        assert len(grads) == len(model.interaction_params())
        # Only the user-slot rows of W1 carry gradient.
        assert np.abs(grads[0][:4]).sum() > 0
        assert np.abs(grads[0][4:]).sum() == 0
        assert all((g == 0).all() for g in grads[1:])

    def test_gamma_zero_disables(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(gamma=0.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([7]))
        assert all((g == 0).all() for g in grads)

    def test_server_step_lowers_pseudo_user_scores(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4, gamma=1.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=3)
        model.item_embeddings[...] = matrix
        popular = reg.miner.popular_items()
        pseudo = model.item_embeddings[popular]
        items = model.item_embeddings[[7, 8, 9]]
        users_rep = np.repeat(pseudo, len(items), axis=0)
        items_rep = np.tile(items, (len(pseudo), 1))
        before, _ = model.forward(users_rep, items_rep)
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        model.apply_param_update([-1.0 * g for g in grads])
        after, _ = model.forward(users_rep, items_rep)
        assert after.mean() < before.mean()


class TestRoundSnapshotSharing:
    """Miner baselines cost one item-matrix copy a round, not one a client."""

    def test_co_sampled_miners_share_one_baseline_until_they_freeze(
        self, tiny_mf_config
    ):
        config = replace(
            tiny_mf_config,
            defense=DefenseConfig(name="regularization", mining_rounds=2),
        )
        sim = FederatedSimulation(config)
        for round_idx in range(6):
            sim.run_round(round_idx)
        miners = [reg.miner for reg in sim.state._regularizers.values()]
        assert any(miner.ready for miner in miners)
        assert all(m._tracker._last is None for m in miners if m.ready)
        baselines = {
            id(m._tracker._last): m._tracker._last for m in miners if not m.ready
        }
        # Still-mining clients hold the copy of the last round they were
        # sampled in: at most one array per round played.
        assert 1 <= len(baselines) <= 6 < len(miners)
        assert all(b is not sim.model.item_embeddings for b in baselines.values())
