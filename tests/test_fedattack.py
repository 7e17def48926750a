"""Tests for the untargeted FedAttack baseline."""

import numpy as np
import pytest

from reference import ReferenceAttacker
from repro.attacks.baselines.fedattack import FedAttack
from repro.config import AttackConfig, TrainConfig, replace
from repro.federated.simulation import FederatedSimulation
from repro.models.mf import MFModel


@pytest.fixture()
def cfg():
    return AttackConfig(name="fedattack", malicious_ratio=0.1)


class TestFedAttack:
    def test_uploads_inverted_gradients(self, cfg):
        model = MFModel(30, 4, seed=0)
        attack = FedAttack(0, np.array([5]), cfg, 30, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        assert update is not None
        assert update.malicious
        # Batch covers the fake positives and their sampled negatives.
        assert set(attack.fake_positives.tolist()).issubset(
            set(update.item_ids.tolist())
        )

    def test_gradients_flip_supervision(self, cfg):
        model = MFModel(30, 4, seed=1)
        attack = FedAttack(0, np.array([5]), cfg, 30, embedding_dim=4)
        update = ReferenceAttacker(attack).participate(model, TrainConfig(lr=1.0), 0)
        # For its fake positives the attack trains towards label 0: the
        # gradient must *lower* their score for the attacker embedding.
        for item_id, grad in zip(update.item_ids, update.item_grads):
            if item_id in attack.fake_positives:
                moved = model.item_embeddings[item_id] - grad
                before = model.item_embeddings[item_id] @ attack.user_embedding
                after = moved @ attack.user_embedding
                assert after <= before + 1e-9

    def test_untargeted_attack_degrades_hr(self, tiny_mf_config):
        """The stealth contrast with targeted PIECK (Section II)."""
        clean = FederatedSimulation(tiny_mf_config).run(rounds=40)
        attacked_cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="fedattack", malicious_ratio=0.25),
        )
        attacked = FederatedSimulation(attacked_cfg).run(rounds=40)
        assert attacked.hit_ratio < clean.hit_ratio

    def test_profile_size_capped_by_catalogue(self, cfg):
        attack = FedAttack(
            0, np.array([1]), cfg, 8, embedding_dim=4, fake_profile_size=100
        )
        assert len(attack.fake_positives) == 8
