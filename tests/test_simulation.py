"""End-to-end tests for the federated simulation."""

import weakref

import numpy as np
import pytest

from repro.config import AttackConfig, DefenseConfig, replace
from repro.datasets.loaders import load_dataset
from repro.federated.simulation import FederatedSimulation
from repro.stateful import state_of


def _nbytes(state) -> int:
    """Array bytes in a ``state()`` tree."""
    if isinstance(state, np.ndarray):
        return state.nbytes
    if isinstance(state, dict):
        state = list(state.values())
    if isinstance(state, (list, tuple)):
        return sum(_nbytes(item) for item in state)
    return 0


class TestCleanTraining:
    def test_metrics_in_range(self, tiny_mf_config):
        result = FederatedSimulation(tiny_mf_config).run()
        assert 0.0 <= result.exposure <= 1.0
        assert 0.0 <= result.hit_ratio <= 1.0

    def test_training_improves_hit_ratio(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        _, hr_before = sim.evaluate()
        result = sim.run()
        assert result.hit_ratio > hr_before

    def test_deterministic_given_seed(self, tiny_mf_config):
        a = FederatedSimulation(tiny_mf_config).run()
        b = FederatedSimulation(tiny_mf_config).run()
        assert a.exposure == b.exposure
        assert a.hit_ratio == b.hit_ratio

    def test_no_malicious_without_attack(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        assert sim.malicious_cohort is None
        assert sim.total_users == sim.dataset.num_users

    def test_targets_selected_even_without_attack(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        assert len(sim.targets) == 1

    def test_history_recorded(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, eval_every=10)
        )
        result = FederatedSimulation(cfg).run()
        rounds = [rec.round_idx for rec in result.history]
        assert rounds == [10, 20, 25]

    def test_item_history_recording(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        result = sim.run(rounds=5, record_item_history=True)
        assert len(result.item_history) == 6  # snapshots 0..4 + final
        assert not np.array_equal(result.item_history[0], result.item_history[-1])

    def test_ncf_end_to_end(self, tiny_ncf_config):
        result = FederatedSimulation(tiny_ncf_config).run(rounds=10)
        assert 0.0 <= result.hit_ratio <= 1.0


class TestAttackedTraining:
    def test_malicious_population_size(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
        )
        sim = FederatedSimulation(cfg)
        ratio = sim.malicious_cohort.num_clients / sim.total_users
        assert ratio == pytest.approx(0.1, abs=0.03)

    def test_explicit_target_items_respected(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", target_items=(3, 7)),
        )
        sim = FederatedSimulation(cfg)
        np.testing.assert_array_equal(sim.targets, [3, 7])

    def test_empty_target_items_rejected(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config, attack=AttackConfig(name="pieck_uea", target_items=())
        )
        with pytest.raises(ValueError, match="target_items"):
            FederatedSimulation(cfg)

    def test_out_of_range_target_item_rejected(self, tiny_mf_config):
        num_items = load_dataset(tiny_mf_config.dataset).num_items
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="fedattack", target_items=(2, num_items)),
        )
        with pytest.raises(ValueError, match=f"target item {num_items} "):
            FederatedSimulation(cfg)

    @pytest.mark.parametrize("attack", ["pieck_ipe", "pieck_uea"])
    def test_no_dead_attacker_state(self, tiny_mf_config, attack):
        """The attacker's checkpointed state is the cohort's: far less
        than one item vector per member before the team has played."""
        cfg = replace(
            tiny_mf_config, attack=AttackConfig(name=attack, malicious_ratio=0.1)
        )
        sim = FederatedSimulation(cfg)
        benign = ("server", "store", "engine", "transit", "async")
        held = sum(
            _nbytes(state_of(component))
            for name, component in sim._components().items()
            if name not in benign
        )
        num_malicious = sim.total_users - sim.dataset.num_users
        assert 0 < held < num_malicious * sim.dataset.num_items * 8

    def test_attack_raises_exposure(self, tiny_mf_config):
        clean = FederatedSimulation(tiny_mf_config).run(rounds=40)
        attacked_cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
        )
        attacked = FederatedSimulation(attacked_cfg).run(rounds=40)
        assert attacked.exposure > clean.exposure

    def test_defense_reduces_exposure(self, tiny_mf_config):
        attacked_cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
        )
        defended_cfg = replace(
            attacked_cfg, defense=DefenseConfig(name="regularization")
        )
        attacked = FederatedSimulation(attacked_cfg).run(rounds=40)
        defended = FederatedSimulation(defended_cfg).run(rounds=40)
        assert defended.exposure <= attacked.exposure

    def test_server_defense_wiring(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
            defense=DefenseConfig(name="median"),
        )
        result = FederatedSimulation(cfg).run(rounds=10)
        assert 0.0 <= result.hit_ratio <= 1.0


class TestEvaluation:
    def test_disabled_hit_ratio_has_no_negatives(self, tiny_mf_config):
        # eval_num_negatives <= 0 disables HR@K: the packed negatives are
        # a (U, 0) matrix, HR reads 0.0, and ER@K is what it is with HR on.
        train = replace(tiny_mf_config.train, eval_num_negatives=0)
        off = replace(tiny_mf_config, train=train)
        sim = FederatedSimulation(off)
        users = sim.dataset.num_users
        assert sim._eval_negatives.shape == (users, 0)
        assert sim._eval_negative_counts.tolist() == [0] * users
        exposure, hit_ratio = sim.evaluate()
        assert hit_ratio == 0.0
        assert exposure == FederatedSimulation(tiny_mf_config).evaluate()[0]

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    def test_one_score_block_alive_at_a_time(
        self, kind, tiny_mf_config, tiny_ncf_config
    ):
        """A block is freed before the next is scored, so evaluation's
        peak is one block whatever free memory the heap has."""
        cfg = tiny_mf_config if kind == "mf" else tiny_ncf_config
        cfg = replace(cfg, train=replace(cfg.train, eval_chunk_users=7))
        sim = FederatedSimulation(cfg)
        score_matrix = sim.model.score_matrix
        blocks = []

        def scored(user_matrix):
            assert all(block() is None for block in blocks)
            scores = score_matrix(user_matrix)
            blocks.append(weakref.ref(scores))
            return scores

        sim.model.score_matrix = scored
        result = sim.evaluate()
        del sim.model.score_matrix
        assert len(blocks) > 2
        assert result == sim.evaluate()

    def test_evaluate_with_custom_k(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        sim.run(rounds=10)
        er5, hr5 = sim.evaluate(k=5)
        er20, hr20 = sim.evaluate(k=20)
        assert hr20 >= hr5  # larger cutoff can only add hits
        assert er20 >= er5

    def test_user_embedding_matrix_shape(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        matrix = sim.user_embedding_matrix()
        assert matrix.shape == (
            sim.dataset.num_users,
            tiny_mf_config.model.embedding_dim,
        )
