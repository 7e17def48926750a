"""Tests for the PIECK-IPE and PIECK-UEA attack clients."""

import numpy as np
import pytest

from reference import ReferenceAttacker
from repro.attacks.base import bounded_step_gradient, delta_as_gradient, select_target_items
from repro.attacks.pieck_ipe import PieckIPE, ipe_loss_and_grad
from repro.attacks.pieck_uea import PieckUEA
from repro.config import AttackConfig, TrainConfig, replace
from repro.models.mf import MFModel
from repro.rng import make_rng
from tests.conftest import numeric_gradient


class TestDeltaAsGradient:
    def test_roundtrip(self):
        old = np.array([1.0, 2.0])
        new = np.array([0.5, 3.0])
        grad = delta_as_gradient(old, new, server_lr=0.5)
        np.testing.assert_allclose(old - 0.5 * grad, new)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            delta_as_gradient(np.zeros(2), np.ones(2), 0.0)

    def test_bounded_step_caps_move(self):
        old = np.zeros(3)
        new = np.array([10.0, 0.0, 0.0])
        grad = bounded_step_gradient(old, new, server_lr=1.0, max_step=2.0)
        moved = old - grad
        assert np.linalg.norm(moved - old) == pytest.approx(2.0)
        # Direction towards the target preserved.
        assert moved[0] > 0

    def test_bounded_step_noop_within_bound(self):
        old = np.zeros(2)
        new = np.array([0.5, 0.0])
        grad = bounded_step_gradient(old, new, 1.0, max_step=2.0)
        np.testing.assert_allclose(old - grad, new)


class TestTargetSelection:
    def test_prefers_cold_items(self, tiny_dataset):
        rng = make_rng(0)
        targets = select_target_items(tiny_dataset, 2, rng)
        # Targets come from the cold tail: no more popular than the
        # 8 * count coldest item (the fallback pool bound).
        rank_of = tiny_dataset.popularity_rank_of()
        assert (rank_of[targets] >= tiny_dataset.num_items - 8).all()

    def test_zero_popularity_items_chosen_when_available(self):
        from repro.datasets.base import InteractionDataset

        data = InteractionDataset(
            "cold", 2, 10,
            [np.array([0, 1]), np.array([0, 2])],
            np.array([3, 3]),
        )
        targets = select_target_items(data, 2, make_rng(1))
        assert (data.popularity()[targets] == 0).all()

    def test_requested_count(self, tiny_dataset):
        rng = make_rng(1)
        assert len(select_target_items(tiny_dataset, 3, rng)) == 3


class TestIpeLoss:
    def test_gradient_numeric_pcos(self):
        rng = make_rng(2)
        popular = rng.normal(size=(6, 5))
        target = rng.normal(size=5)
        _, grad = ipe_loss_and_grad(target, popular, lam=0.7)
        numeric = numeric_gradient(
            lambda v: ipe_loss_and_grad(v, popular, lam=0.7)[0], target.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_gradient_numeric_pkl(self):
        rng = make_rng(3)
        popular = rng.normal(size=(4, 5))
        target = rng.normal(size=5)
        _, grad = ipe_loss_and_grad(target, popular, metric="pkl")
        numeric = numeric_gradient(
            lambda v: ipe_loss_and_grad(v, popular, metric="pkl")[0], target.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_descending_loss_improves_alignment(self):
        rng = make_rng(4)
        popular = rng.normal(size=(5, 4)) + 2.0
        target = rng.normal(size=4)
        vec = target.copy()
        for _ in range(50):
            _, grad = ipe_loss_and_grad(vec, popular)
            vec -= 0.2 * grad
        before = np.mean(popular @ target / np.linalg.norm(target))
        after = np.mean(popular @ vec / np.linalg.norm(vec))
        assert after > before

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            ipe_loss_and_grad(np.ones(3), np.ones((2, 3)), lam=0.0)

    def test_invalid_metric(self):
        with pytest.raises(ValueError, match="metric"):
            ipe_loss_and_grad(np.ones(3), np.ones((2, 3)), metric="cosine")

    def test_partition_splits_by_sign(self):
        # With one aligned and one anti-aligned popular item, the
        # partitioned loss should still pull towards the aligned one.
        popular = np.array([[1.0, 0.0], [-1.0, 0.0]])
        target = np.array([0.5, 0.5])
        _, grad_partitioned = ipe_loss_and_grad(target, popular, use_partition=True)
        # Without partition, equal weights exactly cancel the cosines.
        _, grad_flat = ipe_loss_and_grad(
            target, popular, use_partition=False, use_weights=False
        )
        assert np.linalg.norm(grad_flat) < np.linalg.norm(grad_partitioned) + 1e-9


def run_attack_lifecycle(attack, model, rounds=6):
    updates = []
    cfg = TrainConfig(lr=1.0)
    for round_idx in range(rounds):
        updates.append(attack.participate(model, cfg, round_idx))
    return updates


class TestPieckLifecycles:
    @pytest.mark.parametrize("cls", [PieckIPE, PieckUEA])
    def test_mining_phase_uploads_nothing(self, cls, attack_cfg):
        model = MFModel(30, 6, seed=0)
        attack = ReferenceAttacker(cls(100, np.array([5]), attack_cfg, 30))
        updates = run_attack_lifecycle(attack, model)
        # mining_rounds=2 -> the first two participations only observe;
        # the third completes mining and attacks in the same round
        # (Algorithms 1 and 2 overlap at r-tilde = R-tilde + 1).
        assert updates[0] is None and updates[1] is None
        assert updates[2] is not None and updates[3] is not None

    @pytest.mark.parametrize("cls", [PieckIPE, PieckUEA])
    def test_poison_targets_only(self, cls, attack_cfg):
        model = MFModel(30, 6, seed=0)
        targets = np.array([5, 9])
        attack = ReferenceAttacker(cls(100, targets, attack_cfg, 30))
        update = run_attack_lifecycle(attack, model)[-1]
        np.testing.assert_array_equal(np.sort(update.item_ids), targets)
        assert update.malicious

    def test_one_then_copy_duplicates_gradient(self, attack_cfg):
        model = MFModel(30, 6, seed=0)
        # Make both targets share an embedding so copy == recompute.
        model.item_embeddings[9] = model.item_embeddings[5]
        cfg = replace(attack_cfg, multi_target_strategy="one_then_copy")
        attack = ReferenceAttacker(PieckIPE(100, np.array([5, 9]), cfg, 30))
        update = run_attack_lifecycle(attack, model)[-1]
        np.testing.assert_allclose(update.item_grads[0], update.item_grads[1])

    def test_uea_raises_target_score_for_popular(self, attack_cfg):
        model = MFModel(30, 6, seed=3)
        # Give popular items large coherent embeddings so mining finds them.
        hot = np.arange(8)
        drift = make_rng(5).normal(size=(8, 6))
        attack = ReferenceAttacker(PieckUEA(100, np.array([20]), attack_cfg, 30))
        cfg = TrainConfig(lr=1.0)
        for round_idx in range(8):
            model.item_embeddings[hot] += 0.5 * drift
            update = attack.participate(model, cfg, round_idx)
            if update is not None:
                # Apply the poison like an undefended server would.
                model.apply_item_update(update.item_ids, -cfg.lr * update.item_grads)
        popular_vecs = model.item_embeddings[attack.miner.mined]
        target_vec = model.item_embeddings[20]
        assert float(np.mean(popular_vecs @ target_vec)) > 0.0

    def test_mined_set_excludes_targets(self, attack_cfg):
        model = MFModel(30, 6, seed=0)
        target = 5
        attack = ReferenceAttacker(PieckUEA(100, np.array([target]), attack_cfg, 30))
        cfg = TrainConfig(lr=1.0)
        for round_idx in range(4):
            # Target churns the most, as if other attackers poison it.
            model.item_embeddings[target] += 10.0
            attack.participate(model, cfg, round_idx)
        popular = attack.client._popular_excluding_targets(attack.miner.mined)
        assert target not in popular

    def test_participation_scale_splits_team(self, attack_cfg):
        attack = ReferenceAttacker(
            PieckIPE(100, np.array([5]), attack_cfg, 30), team_size=10
        )
        # Sampled every round -> rate 1.0 -> scale 1/10.
        scales = [attack._participation_scale(r) for r in range(3)]
        assert scales[-1] == pytest.approx(0.1)

    def test_participation_scale_floor_of_one(self, attack_cfg):
        attack = ReferenceAttacker(PieckIPE(100, np.array([5]), attack_cfg, 30))
        assert attack._participation_scale(0) == 1.0
