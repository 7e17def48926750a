"""Tests for the baseline attacks (FedRecAttack, PipAttack, A-ra, A-hum)."""

import numpy as np
import pytest

from reference import ReferenceAttacker
from repro.attacks.baselines.fedrecattack import FedRecAttack
from repro.attacks.baselines.interaction import AHum, ARa
from repro.attacks.baselines.pipattack import PipAttack
from repro.config import AttackConfig, TrainConfig
from repro.models.mf import MFModel
from repro.models.ncf import NCFModel
from repro.rng import make_rng


@pytest.fixture()
def cfg():
    return AttackConfig(name="x", malicious_ratio=0.05)


class TestFedRecAttack:
    def test_requires_known_users(self, cfg):
        with pytest.raises(ValueError, match="known user"):
            FedRecAttack(0, np.array([1]), cfg, 10, [], embedding_dim=4)

    def test_uploads_target_gradients(self, cfg):
        model = MFModel(20, 4, seed=0)
        known = [np.array([0, 1]), np.array([2, 3])]
        attack = FedRecAttack(0, np.array([7]), cfg, 20, known, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        np.testing.assert_array_equal(update.item_ids, [7])
        assert update.malicious

    def test_surrogates_fit_known_interactions(self, cfg):
        model = MFModel(20, 4, seed=1)
        known = [np.array([0, 1, 2])]
        attack = FedRecAttack(
            0, np.array([7]), cfg, 20, known, embedding_dim=4, fit_steps=50, fit_lr=0.5
        )
        before = float(
            np.mean(model.item_embeddings[known[0]] @ attack.surrogate_users[0])
        )
        ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        after = float(
            np.mean(model.item_embeddings[known[0]] @ attack.surrogate_users[0])
        )
        assert after > before  # surrogate now "likes" its known items


class TestPipAttack:
    def test_label_shape_enforced(self, cfg):
        with pytest.raises(ValueError, match="entry per item"):
            PipAttack(0, np.array([1]), cfg, 10, np.zeros(5), embedding_dim=4)

    def test_classifier_learns_separable_popularity(self, cfg):
        model = MFModel(40, 4, seed=2)
        # Popular items in one half-space.
        labels = np.zeros(40)
        labels[:10] = 1.0
        model.item_embeddings[:10] += np.array([2.0, 0, 0, 0])
        attack = PipAttack(0, np.array([30]), cfg, 40, labels, embedding_dim=4)
        ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        # Classifier weights should point towards the popular half-space.
        assert attack._weights[0] > 0

    def test_poison_moves_target_towards_popular_class(self, cfg):
        model = MFModel(40, 4, seed=2)
        labels = np.zeros(40)
        labels[:10] = 1.0
        model.item_embeddings[:10] += np.array([3.0, 0, 0, 0])
        attack = PipAttack(0, np.array([30]), cfg, 40, labels, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        moved = model.item_embeddings[30] - 1.0 * update.item_grads[0]
        assert moved[0] > model.item_embeddings[30][0]


class TestARa:
    def test_mf_uploads_no_param_grads(self, cfg):
        model = MFModel(20, 4, seed=3)
        attack = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        assert update.param_grads == []
        np.testing.assert_array_equal(update.item_ids, [5])

    def test_ncf_uploads_param_grads(self, cfg):
        model = NCFModel(20, 4, mlp_layers=(8,), seed=3)
        attack = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        assert len(update.param_grads) == len(model.interaction_params())

    def test_param_poisoning_restores_model(self, cfg):
        model = NCFModel(20, 4, mlp_layers=(8,), seed=3)
        before = [p.copy() for p in model.interaction_params()]
        attack = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)
        ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        for prev, current in zip(before, model.interaction_params()):
            np.testing.assert_array_equal(prev, current)

    def test_poison_promotes_target_for_random_users(self, cfg):
        model = NCFModel(20, 4, mlp_layers=(8,), seed=4)
        attack = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=0.1), 0)
        # Apply the poisonous parameter gradients like the server would.
        model.apply_param_update([-0.1 * g for g in update.param_grads])
        model.apply_item_update(update.item_ids, -0.1 * update.item_grads)
        users = make_rng(0).normal(scale=0.1, size=(64, 4))
        items = np.broadcast_to(model.item_embeddings[5], users.shape).copy()
        logits, _ = model.forward(users, items)
        baseline_items = np.broadcast_to(model.item_embeddings[9], users.shape).copy()
        baseline, _ = model.forward(users, baseline_items)
        assert logits.mean() > baseline.mean()


class TestAHum:
    def test_hard_mining_preserves_norms(self, cfg):
        model = MFModel(20, 4, seed=5)
        attack = AHum(0, np.array([5]), cfg, 20, embedding_dim=4)
        rng = make_rng(1)
        users = attack._simulated_users(model, rng)
        raw = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)._simulated_users(
            model, make_rng(1)
        )
        np.testing.assert_allclose(
            np.linalg.norm(users, axis=1), np.linalg.norm(raw, axis=1), rtol=1e-9
        )

    def test_hard_users_dislike_target(self, cfg):
        model = MFModel(20, 4, seed=6)
        model.item_embeddings[5] = np.array([1.0, 1.0, 0.0, 0.0])
        attack = AHum(
            0, np.array([5]), cfg, 20, embedding_dim=4,
            hard_mining_steps=20, hard_mining_lr=0.3,
        )
        rng = make_rng(2)
        hard = attack._simulated_users(model, rng)
        random = ARa(0, np.array([5]), cfg, 20, embedding_dim=4)._simulated_users(
            model, make_rng(2)
        )
        target = model.item_embeddings[5]
        assert (hard @ target).mean() < (random @ target).mean()

    def test_poison_items_enabled(self, cfg):
        model = MFModel(20, 4, seed=7)
        attack = AHum(0, np.array([5]), cfg, 20, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        assert update is not None
        np.testing.assert_array_equal(update.item_ids, [5])
