"""Tests for configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    replace,
)


class TestTrainConfig:
    def test_effective_client_lr_defaults_to_server(self):
        cfg = TrainConfig(lr=0.3)
        assert cfg.effective_client_lr == 0.3

    def test_effective_client_lr_override(self):
        cfg = TrainConfig(lr=0.3, client_lr=0.01)
        assert cfg.effective_client_lr == 0.01

    def test_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 2.0

    @pytest.mark.parametrize("lr_range", [(0.5, 0.1), (0.0, 1.0), (-1.0, 1.0)])
    def test_bad_client_lr_range_rejected(self, lr_range):
        with pytest.raises(ValueError, match="client_lr_range"):
            TrainConfig(client_lr_range=lr_range)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("top_k", 0),
            ("eval_num_negatives", -1),
            ("users_per_round", 0),
            ("rounds", -1),
            ("eval_every", -1),
            ("negative_ratio", 0),
        ],
    )
    def test_bad_evaluation_and_round_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_eval_negatives_turns_hr_off(self):
        assert TrainConfig(eval_num_negatives=0).eval_num_negatives == 0

    def test_valid_knobs_accepted(self):
        cfg = TrainConfig(client_lr_range=(0.1, 0.1), eval_chunk_users=1)
        assert cfg.client_lr_range == (0.1, 0.1)


class TestExperimentConfig:
    def test_defaults_compose(self):
        cfg = ExperimentConfig()
        assert cfg.attack is None
        assert cfg.defense.name == "none"
        assert cfg.model.kind == "mf"

    def test_replace_derives_variant(self):
        cfg = ExperimentConfig()
        variant = replace(cfg, attack=AttackConfig(name="pieck_ipe"))
        assert variant.attack.name == "pieck_ipe"
        assert cfg.attack is None  # original untouched

    def test_nested_replace(self):
        cfg = ExperimentConfig()
        variant = replace(cfg, train=replace(cfg.train, rounds=5))
        assert variant.train.rounds == 5


class TestAttackConfig:
    def test_defaults_follow_paper(self):
        cfg = AttackConfig()
        assert cfg.malicious_ratio == 0.05
        assert cfg.mining_rounds == 2
        assert cfg.num_popular == 10
        assert cfg.num_targets == 1

    def test_multi_target_strategy_default(self):
        assert AttackConfig().multi_target_strategy == "one_then_copy"

    @pytest.mark.parametrize(
        "items,bad", [((5, 5), 5), ((3, -1), -1)], ids=["duplicate", "negative"]
    )
    def test_bad_target_items_rejected(self, items, bad):
        with pytest.raises(ValueError, match=f"target item {bad} "):
            AttackConfig(target_items=items)

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_num_targets_rejected(self, count):
        with pytest.raises(ValueError, match=f"num_targets must be >= 1, got {count}"):
            AttackConfig(num_targets=count)


class TestDefenseConfig:
    def test_defaults(self):
        cfg = DefenseConfig()
        assert cfg.name == "none"
        assert cfg.beta >= 0 and cfg.gamma >= 0


class TestDatasetAndModelConfig:
    def test_dataset_defaults(self):
        cfg = DatasetConfig()
        assert cfg.name == "ml-100k"
        assert cfg.scale == 1.0

    def test_model_defaults(self):
        cfg = ModelConfig()
        assert cfg.kind == "mf"
        assert cfg.embedding_dim == 16
        assert len(cfg.mlp_layers) == 2
